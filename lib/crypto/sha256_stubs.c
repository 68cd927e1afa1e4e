/* SHA-256 block compression on the x86 SHA extensions, and the CPUID
   probe Sha256 asks once whether to call it. Off x86-64, or under a
   compiler other than GCC or Clang, the probe answers no. The state is
   the OCaml kernel's: words a..h, native endian. */

#include <stdint.h>
#include <stdlib.h>
#include <caml/mlvalues.h>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <cpuid.h>
#include <immintrin.h>

static const uint32_t k[64] __attribute__((aligned(16))) = {
  0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
  0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
  0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
  0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
  0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
  0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
  0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
  0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2 };

/* Only this function uses the extensions, so the library loads on any
   x86-64 CPU. sha256rnds2 runs two rounds on the state split as ABEF and
   CDGH; the schedule is a ring of four vectors of four words. */
__attribute__((target("sha,ssse3,sse4.1")))
static void compress(uint32_t *st, const unsigned char *block)
{
  const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i t = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)st), 0xB1);        /* CDAB */
  __m128i s1 = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)(st + 4)), 0x1B); /* EFGH */
  __m128i s0 = _mm_alignr_epi8(t, s1, 8), abef = s0, cdgh, m, w[4];                /* ABEF */
  s1 = cdgh = _mm_blend_epi16(s1, t, 0xF0);                                        /* CDGH */
#pragma GCC unroll 16
  for (int g = 0; g < 16; g++) {
    if (g < 4)
      w[g] = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(block + 16 * g)), bswap);
    else
      w[g & 3] = _mm_sha256msg2_epu32(
          _mm_add_epi32(_mm_sha256msg1_epu32(w[g & 3], w[(g + 1) & 3]),
                        _mm_alignr_epi8(w[(g + 3) & 3], w[(g + 2) & 3], 4)),
          w[(g + 3) & 3]);
    m = _mm_add_epi32(w[g & 3], _mm_load_si128((const __m128i *)(k + 4 * g)));
    s1 = _mm_sha256rnds2_epu32(s1, s0, m);
    s0 = _mm_sha256rnds2_epu32(s0, s1, _mm_shuffle_epi32(m, 0x0E));
  }
  t = _mm_shuffle_epi32(_mm_add_epi32(s0, abef), 0x1B);  /* FEBA */
  s1 = _mm_shuffle_epi32(_mm_add_epi32(s1, cdgh), 0xB1); /* DCHG */
  _mm_storeu_si128((__m128i *)st, _mm_blend_epi16(t, s1, 0xF0));    /* DCBA */
  _mm_storeu_si128((__m128i *)(st + 4), _mm_alignr_epi8(s1, t, 8)); /* HGFE */
}

/* CPUID leaf 7 EBX bit 29 (SHA), leaf 1 ECX bits 9 (SSSE3) and 19
   (SSE4.1). The XMM registers they use are part of x86-64 itself. */
value caml_sha256_hw_available(value unit)
{
  unsigned a, b, c, d;
  if (!__get_cpuid(1, &a, &b, &c, &d) || !(c & (1u << 9)) || !(c & (1u << 19)))
    return Val_false;
  return Val_bool(__get_cpuid_count(7, 0, &a, &b, &c, &d) && (b & (1u << 29)));
}

/* The caller checked that [st] has 32 bytes and [block] 64 at [off]. */
value caml_sha256_compress(value st, value block, value off)
{
  compress((uint32_t *)Bytes_val(st), Bytes_val(block) + Long_val(off));
  return Val_unit;
}
#else
value caml_sha256_hw_available(value unit) { return Val_false; }
value caml_sha256_compress(value st, value block, value off) { abort(); }
#endif
