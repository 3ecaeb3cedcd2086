// perfbench_spawn — runs one command and reports its wall time and peak RSS.
//
// A process spawned straight from the Python benchmark would report the
// interpreter's resident set as its own peak: Linux carries the pre-exec
// high-water mark of the forking process across exec into ru_maxrss. This
// launcher is small, so the floor it passes on is a few hundred KiB, not
// the interpreter's ~14 MiB.
//
//   perfbench_spawn REPORT -- PROGRAM [ARG]...
//
// Writes "<exit code> <wall seconds> <peak RSS KiB>" to REPORT; the exit
// code is 128 + N when PROGRAM died from signal N.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <ctime>

namespace {

double seconds(const timespec& t) {
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) * 1e-9;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4 || std::strcmp(argv[2], "--") != 0) {
    std::fprintf(stderr, "usage: perfbench_spawn REPORT -- PROGRAM [ARG]...\n");
    return 2;
  }
  timespec start{};
  clock_gettime(CLOCK_MONOTONIC, &start);
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("perfbench_spawn: fork");
    return 2;
  }
  if (pid == 0) {
    execvp(argv[3], argv + 3);
    std::perror("perfbench_spawn: exec");
    _exit(127);
  }
  int status = 0;
  rusage usage{};
  if (wait4(pid, &status, 0, &usage) < 0) {
    std::perror("perfbench_spawn: wait4");
    return 2;
  }
  timespec end{};
  clock_gettime(CLOCK_MONOTONIC, &end);
  const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                     : 128 + WTERMSIG(status);
  std::FILE* report = std::fopen(argv[1], "w");
  if (report == nullptr) {
    std::perror("perfbench_spawn: report");
    return 2;
  }
  std::fprintf(report, "%d %.9f %ld\n", code, seconds(end) - seconds(start),
               usage.ru_maxrss);
  return std::fclose(report) == 0 ? 0 : 2;
}
