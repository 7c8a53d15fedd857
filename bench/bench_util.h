// Shared helpers for the figure/table reproduction binaries.
//
// Every bench accepts:
//   --full            paper-scale durations and seed counts (slower)
//   --seed N          base seed (default 1)
//   --runs N          override the number of independent runs
//   --jobs N          seed-level parallelism (default: one per hw thread)
//   --csv PATH        also write the result series to CSV file(s)
//   --proto NAME      restrict/override the protocol under test
//   --scenario SPEC   key=value overrides for the bench's base scenario
//   --help            print usage and exit
//
// Unknown flags — and unknown --proto names or --scenario keys — are an
// error (exit 2 with usage), not silently ignored: a typo like --job must
// not turn a parallel baseline run into a serial one that silently
// measures something else.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exp/runner.h"
#include "exp/scenario.h"

namespace jtp::bench {

struct Options {
  bool full = false;
  std::uint64_t seed = 1;
  std::optional<std::size_t> runs;
  std::string csv_path;
  std::size_t jobs = 0;  // 0 = auto (one job per hardware thread)
  std::optional<exp::Proto> proto;  // --proto; unset = bench default
  std::string scenario;  // --scenario tokens (validated at parse time)

  std::size_t pick_runs(std::size_t quick, std::size_t paper) const {
    if (runs) return *runs;
    return full ? paper : quick;
  }
  double pick_duration(double quick, double paper) const {
    return full ? paper : quick;
  }

  // The bench's protocol list, unless --proto restricts it to one.
  std::vector<exp::Proto> protos_or(std::vector<exp::Proto> defaults) const {
    if (proto) return {*proto};
    return defaults;
  }
  exp::Proto proto_or(exp::Proto fallback) const {
    return proto.value_or(fallback);
  }
};

// Outcome of parsing: either a usable Options, a help request, or an
// error message. Kept exit-free so tests can exercise the parser.
struct ParseResult {
  Options options;
  bool help = false;
  std::string error;  // non-empty => parse failed

  bool ok() const { return error.empty(); }
};

// Names the --scenario flag in a spec-language error. Those messages
// already start with "scenario: ", which the flag name replaces.
inline std::string scenario_error(const std::string& err) {
  const std::string prefix = "scenario: ";
  const bool has = err.compare(0, prefix.size(), prefix) == 0;
  return "--scenario: " + (has ? err.substr(prefix.size()) : err);
}

inline const char* usage_text() {
  return
      "  --full            paper-scale durations and seed counts (slower)\n"
      "  --seed N          base seed (default 1)\n"
      "  --runs N          override the number of independent runs\n"
      "  --jobs N          run seeds on N threads (default: hw threads)\n"
      "  --csv PATH        also write the result series to CSV file(s);\n"
      "                    multi-table benches derive PATH.<section>.csv\n"
      "  --proto NAME      protocol override: jtp, jnc, tcp, atp, jtp_ff, jtp_dr or bbr\n"
      "  --scenario SPEC   comma-separated key=value scenario overrides\n"
      "                    (first token may name a preset: linear, random,\n"
      "                    mobile, testbed, scale, scale_mobile), e.g.\n"
      "                    --scenario 'net_size=12,loss_good=0.1' or\n"
      "                    --scenario 'mac=tdma_reuse' (tdma, tdma_reuse,\n"
      "                    csma)\n"
      "  --help            show this message\n";
}

inline ParseResult parse_args(int argc, char** argv) {
  ParseResult r;
  auto numeric = [&](const char* flag, int& i, std::uint64_t& out) {
    if (i + 1 >= argc) {
      r.error = std::string(flag) + " requires a value";
      return false;
    }
    const char* arg = argv[++i];
    // Digits only: strtoull would silently wrap "-1" to 2^64-1.
    bool all_digits = *arg != '\0';
    for (const char* p = arg; *p; ++p)
      if (*p < '0' || *p > '9') all_digits = false;
    if (!all_digits) {
      r.error = std::string(flag) + ": '" + arg +
                "' is not a non-negative integer";
      return false;
    }
    char* end = nullptr;
    errno = 0;
    out = std::strtoull(arg, &end, 10);
    if (errno == ERANGE) {  // reject silent saturation to ULLONG_MAX
      r.error = std::string(flag) + ": '" + arg + "' is out of range";
      return false;
    }
    return true;
  };
  for (int i = 1; i < argc; ++i) {
    std::uint64_t v = 0;
    if (std::strcmp(argv[i], "--full") == 0) {
      r.options.full = true;
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      r.help = true;
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      if (!numeric("--seed", i, v)) return r;
      r.options.seed = v;
    } else if (std::strcmp(argv[i], "--runs") == 0) {
      if (!numeric("--runs", i, v)) return r;
      if (v == 0) {
        r.error = "--runs must be at least 1";
        return r;
      }
      r.options.runs = static_cast<std::size_t>(v);
    } else if (std::strcmp(argv[i], "--jobs") == 0) {
      if (!numeric("--jobs", i, v)) return r;
      r.options.jobs = static_cast<std::size_t>(v);
    } else if (std::strcmp(argv[i], "--csv") == 0) {
      if (i + 1 >= argc) {
        r.error = "--csv requires a path";
        return r;
      }
      r.options.csv_path = argv[++i];
    } else if (std::strcmp(argv[i], "--proto") == 0) {
      if (i + 1 >= argc) {
        r.error = "--proto requires a protocol name";
        return r;
      }
      const auto p = core::parse_proto(argv[++i]);
      if (!p) {
        r.error = std::string("--proto: unknown protocol '") + argv[i] +
                  "' (known: jtp, jnc, tcp, atp, jtp_ff, jtp_dr, bbr)";
        return r;
      }
      r.options.proto = *p;
    } else if (std::strcmp(argv[i], "--scenario") == 0) {
      if (i + 1 >= argc) {
        r.error = "--scenario requires a key=value spec";
        return r;
      }
      r.options.scenario = argv[++i];
      // Validate now (against a scratch spec) so a typo fails before any
      // simulation time is spent; benches re-apply onto their own base.
      exp::ScenarioSpec scratch;
      const auto err = exp::apply_scenario_tokens(scratch,
                                                  r.options.scenario);
      if (!err.empty()) {
        r.error = scenario_error(err);
        return r;
      }
      // Protocol and seed have dedicated, bench-aware flags; a proto= or
      // seed= token would bypass per-bench protocol guards (or be
      // silently overwritten by the sweep) — exactly the "measures
      // something else" failure this parser exists to prevent.
      if (scratch.proto != exp::ScenarioSpec{}.proto) {
        r.error = "--scenario: set the protocol with --proto, not proto=";
        return r;
      }
      if (scratch.seed != exp::ScenarioSpec{}.seed) {
        r.error = "--scenario: set the seed with --seed, not seed=";
        return r;
      }
    } else {
      r.error = std::string("unknown flag '") + argv[i] + "'";
      return r;
    }
  }
  return r;
}

// Parses or exits: usage+0 on --help, error+usage+2 on a bad flag.
inline Options parse_options(int argc, char** argv) {
  const auto r = parse_args(argc, argv);
  if (r.help) {
    std::printf("usage: %s [options]\n%s", argv[0], usage_text());
    std::exit(0);
  }
  if (!r.ok()) {
    std::fprintf(stderr, "error: %s\nusage: %s [options]\n%s",
                 r.error.c_str(), argv[0], usage_text());
    std::exit(2);
  }
  return r.options;
}

// Section-qualified CSV path for benches that emit several tables:
// ("out.csv", "b") -> "out.b.csv"; no extension appends ".b". An empty
// section returns the base path unchanged.
inline std::string csv_section_path(const std::string& base,
                                    const std::string& section) {
  if (section.empty()) return base;
  const auto slash = base.find_last_of('/');
  const auto dot = base.find_last_of('.');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash))
    return base + "." + section;
  return base.substr(0, dot) + "." + section + base.substr(dot);
}

// Builds a Report on stdout; when --csv was given, attaches the
// section-qualified path and exits(1) if it cannot be opened (before any
// simulation time is spent).
inline exp::Report make_report(const Options& opt, std::string title,
                               std::vector<sim::Column> cols, int width = 14,
                               const std::string& section = "") {
  exp::Report rep(std::cout, std::move(title), std::move(cols), width);
  if (!opt.csv_path.empty()) {
    const auto path = csv_section_path(opt.csv_path, section);
    if (!rep.to_csv(path)) {
      std::fprintf(stderr, "error: cannot open %s for writing\n",
                   path.c_str());
      std::exit(1);
    }
  }
  return rep;
}

// Flushes the report's CSV and exits(1) on a failed write — a truncated
// CSV must not look like a successful run to the baseline tooling.
inline void finish_report(exp::Report& rep) {
  if (!rep.finish()) {
    std::fprintf(stderr, "error: CSV write to %s failed\n",
                 rep.csv_path().c_str());
    std::exit(1);
  }
}

// Overlays the user's --scenario tokens onto the bench's base spec. The
// tokens were validated at parse time; a failure here means they conflict
// with this bench's base (e.g. a bad preset combination) and is fatal.
// Belt-and-braces: proto/seed changes are re-rejected against the bench's
// own base, mirroring the parse-time check.
inline void apply_scenario(const Options& opt, exp::ScenarioSpec& spec) {
  if (opt.scenario.empty()) return;
  auto updated = spec;
  const auto err = exp::apply_scenario_tokens(updated, opt.scenario);
  if (!err.empty()) {
    std::fprintf(stderr, "error: %s\n", scenario_error(err).c_str());
    std::exit(2);
  }
  if (updated.proto != spec.proto) {
    std::fprintf(stderr,
                 "error: --scenario: set the protocol with --proto\n");
    std::exit(2);
  }
  if (updated.seed != spec.seed) {
    std::fprintf(stderr, "error: --scenario: set the seed with --seed\n");
    std::exit(2);
  }
  spec = std::move(updated);
}

// Sweep collapse: when --scenario overrides a field the bench sweeps
// (e.g. net_size in fig09), the sweep honors the override by collapsing
// to that single point — an accepted key must never be silently
// clobbered by the bench's own loop.
template <typename T>
std::vector<T> sweep_or(const T& value, const T& base_default,
                        std::vector<T> sweep) {
  if (!(value == base_default)) return {value};
  return sweep;
}

// Validates the spec of every net_size point of a sweep before the first
// run. The user's tokens were validated against the base spec only, so a
// workload one point cannot host (fan_in=3 at net_size 2) exits 2 here
// with the validation message instead of throwing inside a run.
inline void validate_sizes(const exp::ScenarioSpec& base,
                           const std::vector<std::size_t>& sizes) {
  for (const std::size_t n : sizes) {
    auto spec = base;
    spec.net_size = n;
    const auto err = exp::validate_spec(spec);
    if (err.empty()) continue;
    std::fprintf(stderr, "error: %s (sweep point net_size=%zu)\n",
                 scenario_error(err).c_str(), n);
    std::exit(2);
  }
}

// For benches whose measurement is specific to one protocol (ablations,
// single-protocol figures): reject a --proto that asks for anything else
// instead of silently ignoring it.
inline void require_proto(const Options& opt, exp::Proto required,
                          const char* why) {
  if (!opt.proto || *opt.proto == required) return;
  std::fprintf(stderr, "error: --proto %s is not supported here: %s\n",
               exp::proto_name(*opt.proto).c_str(), why);
  std::exit(2);
}

// For benches with no scenario at all (closed-form analyses): reject
// --scenario/--proto outright.
inline void reject_scenario_flags(const Options& opt, const char* why) {
  if (opt.proto) {
    std::fprintf(stderr, "error: --proto is not supported here: %s\n", why);
    std::exit(2);
  }
  if (!opt.scenario.empty()) {
    std::fprintf(stderr, "error: --scenario is not supported here: %s\n",
                 why);
    std::exit(2);
  }
}

}  // namespace jtp::bench
