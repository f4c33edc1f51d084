/* What bvbench needs from C: the peak resident set size of this process,
   which OCaml's Unix library does not expose, and the reference loop that
   reads the host's current speed. */

#include <sys/resource.h>
#include <caml/mlvalues.h>

/* Peak RSS of the calling process, in KiB. */
value bvbench_self_peak_rss_kb(value unit)
{
  struct rusage ru;
  (void)unit;
  getrusage(RUSAGE_SELF, &ru);
  return Val_long(ru.ru_maxrss);
}

/* A fixed loop shaped like an interpreter: a switch over 4096
   pseudo-random opcodes that read and write sixteen registers and a
   512 KiB table (about 0.3 ms on a 2-vCPU Intel Xeon virtual machine).
   Its unpredictable dispatch and L2-resident table make it slow down
   when another tenant shares the core, as the simulator does (see
   README.md). It is C so that the program's OCaml compile flags cannot
   change its cost. */
#define TABLE (1 << 16)
#define OPS 4096

static long table[TABLE];
static unsigned char ops[OPS];

value bvbench_reference_loop(value unit)
{
  volatile long sink;
  long r[16] = {0};
  (void)unit;
  if (ops[0] == 0) {
    unsigned long s = 88172645463325252UL;
    for (int i = 0; i < OPS; i++) {
      s ^= s << 13; s ^= s >> 7; s ^= s << 17;
      ops[i] = s % 7 + 1;
    }
    for (int i = 0; i < TABLE; i++) {
      s ^= s << 13; s ^= s >> 7; s ^= s << 17;
      table[i] = s >> 3;
    }
  }
  for (int pass = 0; pass < 6; pass++)
    for (int pc = 0; pc < OPS; pc++) {
      int a = pc & 15, b = (pc * 7 + 3) & 15, c = (pc * 5 + 1) & 15;
      switch (ops[pc]) {
      case 1: r[a] = r[b] + r[c] + pc; break;
      case 2: r[a] = table[(r[b] + pc) & (TABLE - 1)]; break;
      case 3: table[(r[c] ^ pc) & (TABLE - 1)] = r[b]; break;
      case 4: r[a] = (r[b] & 1) ? r[c] >> 1 : r[c] * 3; break;
      case 5: r[a] = r[b] ^ (r[c] << 2); break;
      case 6: r[a] = (r[b] < r[c]) ? r[b] : table[r[c] & (TABLE - 1)]; break;
      default: r[a] = r[b] - 1; break;
      }
    }
  sink = r[0] + r[5];
  (void)sink;
  return Val_unit;
}
