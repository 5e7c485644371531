// perfbench: one process of the end-to-end benchmark (README.md).
//
//   perfbench <mode> [--trace] [--obs-check] [--seed N] [--seconds S]
//             [--root DIR] [--spans FILE]
//
// Modes: matrix (one cold registry-matrix pass), sweep (one cold DVFS
// sweep pass), serve (one Zipf run against a fresh shard tier),
// setup-session (the set-up of a matrix or sweep pass) and setup-serve
// (the set-up of a serve run). Every mode
// prints one JSON report line last on stdout; run.py aggregates them.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "common.hpp"
#include "modes.hpp"

namespace perfbench {

int hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench <mode> [options]\n");
    return 2;
  }
  args.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    const auto take = [&]() -> const char* {
      if (value == nullptr) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      ++i;
      return value;
    };
    if (arg == "--trace") {
      args.trace = true;
    } else if (arg == "--obs-check") {
      args.obs_check = true;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(take(), nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::atof(take());
    } else if (arg == "--root") {
      args.root = take();
    } else if (arg == "--spans") {
      args.spans = take();
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (args.seconds <= 0.0) {
    std::fprintf(stderr, "perfbench: --seconds must be > 0\n");
    return 2;
  }

  try {
    if (args.mode == "matrix") return perfbench::run_matrix(args);
    if (args.mode == "sweep") return perfbench::run_sweep(args);
    if (args.mode == "serve") return perfbench::run_serve(args);
    if (args.mode == "setup-serve") return perfbench::setup_serve(args);
    if (args.mode == "setup-session") {
      // Matrix and sweep passes set up exactly this: registration plus one
      // Session (the Session constructor registers the programs).
      repro::Options options;
      options.threads = perfbench::hardware_threads();
      const repro::v1::Session session(options);
      perfbench::Report report;
      report.ready_mono = perfbench::mono_now_s();
      report.attempted = 1;
      report.rss_mb = perfbench::peak_rss_mb();
      report.print();
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "perfbench: unknown mode %s\n", args.mode.c_str());
  return 2;
}
