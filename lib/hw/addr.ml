type t = int

let page_size = 4096
let is_page_aligned a = a land (page_size - 1) = 0
let align_down a = a land lnot (page_size - 1)
let align_up a = (a + page_size - 1) land lnot (page_size - 1)
let pp fmt a = Format.fprintf fmt "0x%x" a

module Range = struct
  type nonrec t = { base : t; len : int }

  let make ~base ~len =
    if len <= 0 then invalid_arg "Addr.Range.make: non-positive length";
    if base < 0 then invalid_arg "Addr.Range.make: negative base";
    { base; len }

  let of_bounds ~lo ~hi =
    if hi <= lo then invalid_arg "Addr.Range.of_bounds: hi <= lo";
    make ~base:lo ~len:(hi - lo)

  let base r = r.base
  let len r = r.len
  let last r = r.base + r.len - 1
  let limit r = r.base + r.len
  let contains r a = a >= r.base && a < limit r
  let includes ~outer ~inner = inner.base >= outer.base && limit inner <= limit outer
  let overlaps a b = a.base < limit b && b.base < limit a
  let equal a b = a.base = b.base && a.len = b.len

  let compare a b =
    match Int.compare a.base b.base with 0 -> Int.compare a.len b.len | c -> c

  let intersect a b =
    let lo = max a.base b.base and hi = min (limit a) (limit b) in
    if hi <= lo then None else Some (of_bounds ~lo ~hi)

  let subtract a b =
    match intersect a b with
    | None -> [ a ]
    | Some i ->
      let left = if i.base > a.base then [ of_bounds ~lo:a.base ~hi:i.base ] else [] in
      let right = if limit i < limit a then [ of_bounds ~lo:(limit i) ~hi:(limit a) ] else [] in
      left @ right

  let adjacent a b = limit a = b.base || limit b = a.base

  let merge a b =
    if overlaps a b || adjacent a b then
      Some (of_bounds ~lo:(min a.base b.base) ~hi:(max (limit a) (limit b)))
    else None

  let split_at r a =
    if a <= r.base || a >= limit r then None
    else Some (of_bounds ~lo:r.base ~hi:a, of_bounds ~lo:a ~hi:(limit r))

  (* Sorts an array in place, where a list sort would allocate a list
     per merge level, and compacts the merged runs into its prefix. *)
  let union = function
    | ([] | [ _ ]) as rs -> rs
    | rs ->
      let a = Array.of_list rs in
      Array.sort compare a;
      let k = ref 0 in
      for i = 1 to Array.length a - 1 do
        let run = a.(!k) and r = a.(i) in
        if r.base > limit run then begin
          incr k;
          a.(!k) <- r
        end
        else if limit r > limit run then a.(!k) <- of_bounds ~lo:run.base ~hi:(limit r)
      done;
      let out = ref [] in
      for i = !k downto 0 do
        out := a.(i) :: !out
      done;
      !out

  let is_page_aligned r = is_page_aligned r.base && r.len land (page_size - 1) = 0

  let pages r =
    let first = align_down r.base and last_page = align_down (last r) in
    let rec go p acc = if p > last_page then List.rev acc else go (p + page_size) (p :: acc) in
    go first []

  let pp fmt r = Format.fprintf fmt "[0x%x-0x%x)" r.base (limit r)
end
