// A whole-process CPU sampler to LD_PRELOAD into any binary: ITIMER_PROF
// fires SIGPROF every HJ_SAMPLER_US microseconds of process CPU time
// (default 1000), the handler records the interrupted thread's call stack
// with backtrace(), and at exit the samples are written, with the process's
// memory map, to $HJ_SAMPLER_OUT.<pid>. symbolize.py turns that file into
// self and inclusive shares per function. Unlike gprof it needs no
// instrumented build and sees the time spent in libc and libstdc++.
//
//   g++ -O2 -shared -fPIC tools/cpu_sampler/sampler.cc -o sampler.so
//   HJ_SAMPLER_OUT=/tmp/prof HJ_SAMPLER_EXE=perfbench
//       LD_PRELOAD=$PWD/sampler.so python3 perfbench/run.py ...
//   python3 tools/cpu_sampler/symbolize.py /tmp/prof.<pid>
//
// Without HJ_SAMPLER_OUT the library does nothing. HJ_SAMPLER_EXE, when
// set, limits sampling to processes whose executable has that base name,
// so a preload inherited by a launcher script and its build steps samples
// only the program of interest.

#include <execinfo.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace {

constexpr int kMaxFrames = 48;
constexpr size_t kMaxSamples = 1 << 16;

struct Sample {
  int depth;
  void* frames[kMaxFrames];
};

// Static storage: the handler must not allocate. Pages are touched only as
// samples fill them.
Sample g_samples[kMaxSamples];
std::atomic<size_t> g_next{0};
std::atomic<size_t> g_dropped{0};
bool g_active = false;

void OnProf(int, siginfo_t*, void* context) {
  const int saved_errno = errno;
  const size_t i = g_next.fetch_add(1, std::memory_order_relaxed);
  if (i >= kMaxSamples) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    errno = saved_errno;
    return;
  }
  Sample& s = g_samples[i];
  void* pc = nullptr;
#if defined(__x86_64__)
  pc = reinterpret_cast<void*>(
      static_cast<ucontext_t*>(context)->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  pc = reinterpret_cast<void*>(
      static_cast<ucontext_t*>(context)->uc_mcontext.pc);
#endif
  void* raw[kMaxFrames + 4];
  const int n = backtrace(raw, kMaxFrames + 4);
  // The stack starts in this handler and the signal trampoline; keep it
  // from the interrupted pc on. If unwinding lost it, keep the pc alone.
  int first = -1;
  for (int f = 0; f < n && pc != nullptr; ++f) {
    if (raw[f] == pc) {
      first = f;
      break;
    }
  }
  if (first < 0) {
    s.frames[0] = pc;
    s.depth = pc != nullptr ? 1 : 0;
  } else {
    const int depth = n - first < kMaxFrames ? n - first : kMaxFrames;
    std::memcpy(s.frames, raw + first, depth * sizeof(void*));
    s.depth = depth;
  }
  errno = saved_errno;
}

bool ExeMatches(const char* want) {
  char exe[4096];
  const ssize_t n = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (n <= 0) return false;
  exe[n] = '\0';
  const char* base = std::strrchr(exe, '/');
  return std::strcmp(base != nullptr ? base + 1 : exe, want) == 0;
}

__attribute__((constructor)) void Start() {
  const char* out = std::getenv("HJ_SAMPLER_OUT");
  if (out == nullptr || *out == '\0') return;
  const char* exe = std::getenv("HJ_SAMPLER_EXE");
  if (exe != nullptr && *exe != '\0' && !ExeMatches(exe)) return;
  // backtrace() loads its unwinder on first use; do that here, not in the
  // handler.
  void* warm[4];
  backtrace(warm, 4);
  long us = 1000;
  if (const char* v = std::getenv("HJ_SAMPLER_US")) us = std::atol(v);
  if (us <= 0) us = 1000;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = OnProf;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, nullptr) != 0) return;
  itimerval timer;
  timer.it_interval.tv_sec = us / 1000000;
  timer.it_interval.tv_usec = us % 1000000;
  timer.it_value = timer.it_interval;
  if (setitimer(ITIMER_PROF, &timer, nullptr) != 0) return;
  g_active = true;
}

__attribute__((destructor)) void Stop() {
  if (!g_active) return;
  itimerval off;
  std::memset(&off, 0, sizeof(off));
  setitimer(ITIMER_PROF, &off, nullptr);
  signal(SIGPROF, SIG_IGN);
  g_active = false;

  char path[4096];
  std::snprintf(path, sizeof(path), "%s.%d", std::getenv("HJ_SAMPLER_OUT"),
                static_cast<int>(getpid()));
  FILE* out = std::fopen(path, "w");
  if (out == nullptr) return;
  // The memory map first, so addresses resolve to (module, file offset).
  std::fputs("# maps\n", out);
  if (FILE* maps = std::fopen("/proc/self/maps", "r")) {
    char line[8192];
    while (std::fgets(line, sizeof(line), maps) != nullptr) {
      std::fputs(line, out);
    }
    std::fclose(maps);
  }
  const size_t taken = g_next.load();
  const size_t kept = taken < kMaxSamples ? taken : kMaxSamples;
  std::fprintf(out, "# samples %zu dropped %zu\n", kept, g_dropped.load());
  for (size_t i = 0; i < kept; ++i) {
    const Sample& s = g_samples[i];
    for (int f = 0; f < s.depth; ++f) {
      std::fprintf(out, f == 0 ? "%p" : " %p", s.frames[f]);
    }
    std::fputc('\n', out);
  }
  std::fclose(out);
}

}  // namespace
