#ifndef VALENTINE_E2EBENCH_COMMON_H_
#define VALENTINE_E2EBENCH_COMMON_H_

// Shared plumbing for the end-to-end benchmark: the wall clock, sample
// statistics, the result record every workload fills, and the output
// format (human report lines, then one JSON line).

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace e2ebench {

inline double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NowMs() { return NowS() * 1e3; }

// splitmix64: the benchmark's only source of randomness, seeded from
// --seed, so the same seed always yields the same inputs.
inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(Mix(seed)) {}
  uint64_t Next() { return state_ = Mix(state_); }
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }

 private:
  uint64_t state_;
};

template <typename T>
void Shuffle(std::vector<T>& v, Rng& rng) {
  for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.Below(i)]);
}

inline uint64_t Fnv1a(const std::string& bytes,
                      uint64_t h = 0xcbf29ce484222325ULL) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

inline double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double total = 0.0;
  for (double x : v) total += x;
  return total / static_cast<double>(v.size());
}

// The tail the benchmark reports: the highest percentile that still has
// at least ten samples beyond it, i.e. the 11th-largest sample, taken per
// block of consecutive samples and reported as the median over blocks (a
// final partial block joins its predecessor). Blocks hold n/5 samples,
// clamped to [110, kTailBlock], so a run has at least five blocks when it
// can: a single whole-run order statistic is decided by the one worst
// hypervisor stall and spread 0.3-0.8 (IQR/median) between runs here.
constexpr size_t kTailBlock = 500;

struct Tail {
  double value = 0.0;
  double percentile = 0.0;  // of a block
  size_t samples = 0;       // in the whole run
  size_t blocks = 0;
};

inline Tail TailOf(const std::vector<double>& v) {
  Tail t;
  t.samples = v.size();
  if (v.size() < 11) return t;
  const size_t block = std::clamp<size_t>(v.size() / 5, 110, kTailBlock);
  t.blocks = std::max<size_t>(1, v.size() / block);
  std::vector<double> tails;
  for (size_t b = 0; b < t.blocks; ++b) {
    size_t begin = b * block;
    size_t end = b + 1 == t.blocks ? v.size() : begin + block;
    std::vector<double> part(v.begin() + begin, v.begin() + end);
    std::sort(part.begin(), part.end());
    tails.push_back(part[part.size() - 11]);
  }
  t.value = Median(tails);
  const size_t size = std::min(block, v.size());
  t.percentile = 100.0 * static_cast<double>(size - 10) /
                 static_cast<double>(size);
  return t;
}

// Set-ups per run; setup_s is their median. Every set-up but the last
// runs in a forked child (TimeInChild), so the repeats leave no memory
// behind in the measuring process and peak_rss_mb counts one set-up, as
// a real deployment pays.
constexpr size_t kSetupRepeats = 3;

// Runs `setup` (which returns its own elapsed seconds, negative on
// failure) in a forked child and returns what it reported, or -1 when
// the child failed. The child ends itself by SIGALRM if it hangs, so no
// process outlives the run.
template <typename F>
double TimeInChild(F setup) {
  int fds[2];
  if (pipe(fds) != 0) return -1.0;
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return -1.0;
  }
  if (pid == 0) {
    close(fds[0]);
    alarm(120);
    const double seconds = setup();
    const bool sent = write(fds[1], &seconds, sizeof(seconds)) ==
                      static_cast<ssize_t>(sizeof(seconds));
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  double seconds = -1.0;
  const bool got = read(fds[0], &seconds, sizeof(seconds)) ==
                   static_cast<ssize_t>(sizeof(seconds));
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  const bool ok = got && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  return ok ? seconds : -1.0;
}

// One timed operation: when it completed and how long it took.
struct Sample {
  double end_s = 0.0;
  double ms = 0.0;
};

inline std::vector<double> Latencies(const std::vector<Sample>& samples) {
  std::vector<double> ms;
  ms.reserve(samples.size());
  for (const Sample& s : samples) ms.push_back(s.ms);
  return ms;
}

// Completion rate in each one-second slice of [start, start + seconds)
// (at least one slice), measured between the slice's first and last
// completion so the figure is not quantised to whole completions.
// Throughput is reported as the median slice, so a burst of interference
// from outside the process moves it less than a mean would.
inline std::vector<double> RatePerWindow(const std::vector<Sample>& samples,
                                         double start, double seconds) {
  const size_t windows = std::max<size_t>(1, static_cast<size_t>(seconds));
  const double width = seconds / static_cast<double>(windows);
  std::vector<std::vector<double>> ends(windows);
  for (const Sample& s : samples) {
    const double at = (s.end_s - start) / width;
    if (at >= 0.0 && at < static_cast<double>(windows)) {
      ends[static_cast<size_t>(at)].push_back(s.end_s);
    }
  }
  std::vector<double> rates;
  for (std::vector<double>& e : ends) {
    if (e.size() < 2) continue;
    std::sort(e.begin(), e.end());
    rates.push_back(static_cast<double>(e.size() - 1) / (e.back() - e.front()));
  }
  return rates;
}

inline std::string Join(const std::vector<double>& values) {
  std::string out;
  char buf[32];
  for (double v : values) {
    std::snprintf(buf, sizeof(buf), " %.4g", v);
    out += buf;
  }
  return out;
}

// Least-squares slope of y over x.
inline double Slope(const std::vector<double>& x, const std::vector<double>& y) {
  double mx = Mean(x), my = Mean(y), num = 0.0, den = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    num += (x[i] - mx) * (y[i] - my);
    den += (x[i] - mx) * (x[i] - mx);
  }
  return den > 0.0 ? num / den : 0.0;
}

// Everything one run produces. `metrics` holds the values the JSON line
// carries (end-to-end metrics untraced, per-layer metrics traced);
// `report` holds human-readable lines printed before it.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::string> report;

  void Fail(const std::string& why) {
    correct = false;
    report.push_back("CHECK FAILED: " + why);
  }
  void Note(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
};

inline void RunResult::Note(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  report.emplace_back(buf);
}

}  // namespace e2ebench

#endif  // VALENTINE_E2EBENCH_COMMON_H_
