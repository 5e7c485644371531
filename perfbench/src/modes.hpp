// The benchmark's process modes (main.cpp parses the command line; run.py
// spawns one process per cold pass).
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct Args {
  std::string mode;        // matrix | sweep | serve | setup-session | setup-serve
  bool trace = false;      // traced run: spans + per-layer metrics
  bool obs_check = false;  // matrix: compare with the program's obs spans
  std::uint64_t seed = 1;  // workload seed (serve: arrivals, sample seeds)
  double seconds = 10.0;   // serve: length of the arrival schedule
  std::string root = ".";  // repository root (golden file lookup)
  std::string spans;       // traced run: where to write the spans
};

int run_matrix(const Args& args);
int run_sweep(const Args& args);
int run_serve(const Args& args);
int setup_serve(const Args& args);

/// Scheduler threads of every run: the hardware's.
int hardware_threads();

}  // namespace perfbench
