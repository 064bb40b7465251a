#include "pas/analysis/sweep_spec.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "pas/analysis/experiment.hpp"
#include "pas/util/cli.hpp"
#include "pas/util/format.hpp"
#include "pas/util/fs.hpp"
#include "pas/util/json.hpp"

namespace pas::analysis {
namespace {

using pas::util::Json;
using pas::util::strf;

/// Environment values obey the same rules as the flags they stand in
/// for — a typo'd $PASIM_JOBS must fail loudly, not fall back to 0.
long parse_positive_env_int(const char* name, const char* value) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE || v < 1)
    throw std::invalid_argument(
        strf("$%s must be a positive integer (got \"%s\")", name, value));
  return v;
}

[[noreturn]] void field_error(const std::string& field,
                              const std::string& what) {
  throw std::invalid_argument(strf("spec: %s: %s", field.c_str(),
                                   what.c_str()));
}

/// Strictness backbone: every object in the document may only carry
/// keys the schema names — a typo'd "freqs_mzh" must be an error, not
/// a silently ignored axis.
void reject_unknown_keys(const Json& obj, const std::string& where,
                         std::initializer_list<const char*> known) {
  for (const auto& [key, value] : obj.members()) {
    (void)value;
    bool ok = false;
    for (const char* k : known) ok = ok || key == k;
    if (!ok)
      field_error(where.empty() ? key : where + "." + key,
                  "unknown key (check the schema in DESIGN.md §13)");
  }
}

const Json& require_object(const Json& j, const std::string& where) {
  if (!j.is_object()) field_error(where, "expected a JSON object");
  return j;
}

bool get_bool_field(const Json& obj, const std::string& where,
                    const char* key, bool def) {
  const Json* v = obj.find(key);
  if (v == nullptr) return def;
  if (!v->is_bool()) field_error(where + "." + key, "expected true or false");
  return v->as_bool();
}

double get_number_field(const Json& obj, const std::string& where,
                        const char* key, double def) {
  const Json* v = obj.find(key);
  if (v == nullptr) return def;
  if (!v->is_number()) field_error(where + "." + key, "expected a number");
  return v->as_number();
}

long long get_int_field(const Json& obj, const std::string& where,
                        const char* key, long long def) {
  const Json* v = obj.find(key);
  if (v == nullptr) return def;
  if (!v->is_number() || v->as_number() != std::floor(v->as_number()))
    field_error(where + "." + key, "expected an integer");
  const double d = v->as_number();
  if (d < -9.007199254740992e15 || d > 9.007199254740992e15)
    field_error(where + "." + key, "integer out of range");
  return static_cast<long long>(d);
}

std::string get_string_field(const Json& obj, const std::string& where,
                             const char* key, const std::string& def) {
  const Json* v = obj.find(key);
  if (v == nullptr) return def;
  if (!v->is_string()) field_error(where + "." + key, "expected a string");
  return v->as_string();
}

/// FaultConfig's JSON form lives here (not in pas_fault) so the fault
/// library stays free of the JSON dependency; the schema mirrors the
/// struct field for field, all keys optional with the struct defaults.
Json fault_to_json(const fault::FaultConfig& f) {
  Json j = Json::object();
  j.set("seed", Json(static_cast<unsigned long long>(f.seed)));
  j.set("straggler_fraction", Json(f.straggler_fraction));
  j.set("straggler_slowdown", Json(f.straggler_slowdown));
  j.set("dvfs_jitter_s", Json(f.dvfs_jitter_s));
  j.set("message_delay_prob", Json(f.message_delay_prob));
  j.set("message_delay_s", Json(f.message_delay_s));
  j.set("message_drop_prob", Json(f.message_drop_prob));
  j.set("max_send_attempts", Json(f.max_send_attempts));
  j.set("retry_backoff_s", Json(f.retry_backoff_s));
  j.set("node_failure_prob", Json(f.node_failure_prob));
  j.set("node_failure_window_s", Json(f.node_failure_window_s));
  return j;
}

double get_prob_field(const Json& obj, const std::string& where,
                      const char* key, double def) {
  const double v = get_number_field(obj, where, key, def);
  if (v < 0.0 || v > 1.0)
    field_error(where + "." + key, strf("probability %g out of [0, 1]", v));
  return v;
}

double get_nonneg_field(const Json& obj, const std::string& where,
                        const char* key, double def) {
  const double v = get_number_field(obj, where, key, def);
  if (v < 0.0) field_error(where + "." + key, strf("must be >= 0 (got %g)", v));
  return v;
}

fault::FaultConfig fault_from_json(const Json& j) {
  const std::string where = "fault";
  require_object(j, where);
  reject_unknown_keys(j, where,
                      {"seed", "straggler_fraction", "straggler_slowdown",
                       "dvfs_jitter_s", "message_delay_prob",
                       "message_delay_s", "message_drop_prob",
                       "max_send_attempts", "retry_backoff_s",
                       "node_failure_prob", "node_failure_window_s"});
  fault::FaultConfig f;
  const long long seed = get_int_field(j, where, "seed",
                                       static_cast<long long>(f.seed));
  if (seed < 0) field_error("fault.seed", "must be >= 0");
  f.seed = static_cast<std::uint64_t>(seed);
  f.straggler_fraction =
      get_prob_field(j, where, "straggler_fraction", f.straggler_fraction);
  f.straggler_slowdown =
      get_prob_field(j, where, "straggler_slowdown", f.straggler_slowdown);
  f.dvfs_jitter_s = get_nonneg_field(j, where, "dvfs_jitter_s",
                                     f.dvfs_jitter_s);
  f.message_delay_prob =
      get_prob_field(j, where, "message_delay_prob", f.message_delay_prob);
  f.message_delay_s =
      get_nonneg_field(j, where, "message_delay_s", f.message_delay_s);
  f.message_drop_prob =
      get_prob_field(j, where, "message_drop_prob", f.message_drop_prob);
  const long long attempts =
      get_int_field(j, where, "max_send_attempts", f.max_send_attempts);
  if (attempts < 1) field_error("fault.max_send_attempts", "must be >= 1");
  f.max_send_attempts = static_cast<int>(attempts);
  f.retry_backoff_s =
      get_nonneg_field(j, where, "retry_backoff_s", f.retry_backoff_s);
  f.node_failure_prob =
      get_prob_field(j, where, "node_failure_prob", f.node_failure_prob);
  f.node_failure_window_s = get_nonneg_field(j, where, "node_failure_window_s",
                                             f.node_failure_window_s);
  if (f.node_failure_window_s <= 0.0)
    field_error("fault.node_failure_window_s", "must be > 0");
  return f;
}

const std::vector<std::string>& kernel_names() {
  static const std::vector<std::string> names{"EP", "FT", "LU", "CG", "MG"};
  return names;
}

}  // namespace

SweepOptions SweepOptions::from_cli(const util::Cli& cli) {
  return apply_cli(cli, SweepOptions{});
}

SweepOptions SweepOptions::apply_cli(const util::Cli& cli, SweepOptions base) {
  SweepOptions opts = std::move(base);
  if (cli.has("jobs")) {
    opts.jobs = static_cast<int>(cli.get_int("jobs", opts.jobs));
    if (opts.jobs < 1)
      throw std::invalid_argument(
          strf("--jobs must be >= 1 (got %ld)", cli.get_int("jobs", 0)));
  } else if (const char* env_jobs = std::getenv("PASIM_JOBS")) {
    // The environment only stands in when the flag is absent, and is
    // then held to the flag's rules.
    opts.jobs = static_cast<int>(parse_positive_env_int("PASIM_JOBS",
                                                        env_jobs));
  }
  opts.run_retries = static_cast<int>(cli.get_int("retries", opts.run_retries));
  if (opts.run_retries < 0)
    throw std::invalid_argument(
        strf("--retries must be >= 0 (got %d)", opts.run_retries));
  if (cli.has("cache")) {
    opts.cache_dir = cli.get("cache", "");
    if (opts.cache_dir.empty()) opts.cache_dir = ".pasim_cache";
  } else if (const char* env_dir = std::getenv("PASIM_CACHE_DIR")) {
    if (*env_dir == '\0')
      throw std::invalid_argument(
          "$PASIM_CACHE_DIR is set but empty; unset it or point it at a "
          "cache directory");
    opts.cache_dir = env_dir;
  }
  if (cli.get_bool("no-cache", !opts.use_cache)) {
    opts.use_cache = false;
    opts.cache_dir.clear();
  }
  opts.verify_replay = cli.get_bool("verify-replay", opts.verify_replay);
  if (opts.verify_replay && !opts.use_cache)
    throw std::invalid_argument(
        "--verify-replay cannot be combined with --no-cache: the "
        "verification pass compares records through the cache encoding; "
        "drop one of the two flags");
  if (cli.has("journal")) {
    opts.journal_path = cli.get("journal", "");
    if (opts.journal_path.empty()) opts.journal_path = "pasim_sweep.journal";
  }
  opts.resume = cli.get_bool("resume", opts.resume);
  opts.isolate = cli.get_bool("isolate", opts.isolate);
  // --resume and --isolate both need the journal; default its path so
  // neither flag silently no-ops without --journal.
  if ((opts.resume || opts.isolate) && opts.journal_path.empty())
    opts.journal_path = "pasim_sweep.journal";
  opts.isolate_timeout_s =
      cli.get_double("isolate-timeout", opts.isolate_timeout_s);
  if (opts.isolate_timeout_s <= 0.0)
    throw std::invalid_argument(
        strf("--isolate-timeout must be > 0 seconds (got %g)",
             opts.isolate_timeout_s));
  opts.isolate_retries =
      static_cast<int>(cli.get_int("isolate-retries", opts.isolate_retries));
  if (opts.isolate_retries < 0)
    throw std::invalid_argument(
        strf("--isolate-retries must be >= 0 (got %d)", opts.isolate_retries));
  if (cli.has("cache-cap")) {
    const long mb = cli.get_int("cache-cap", 0);
    if (mb < 1)
      throw std::invalid_argument(
          strf("--cache-cap must be >= 1 MB (got %ld)", mb));
    opts.cache_cap_bytes = static_cast<std::uint64_t>(mb) * 1024ULL * 1024ULL;
  }
  if (opts.cache_cap_bytes > 0 && opts.cache_dir.empty())
    throw std::invalid_argument(
        "--cache-cap requires a disk cache: add --cache [dir] (and drop "
        "--no-cache)");
  opts.sampling = cli.get_bool("sampling", opts.sampling);
  opts.sample_period =
      static_cast<int>(cli.get_int("sample-period", opts.sample_period));
  if (opts.sample_period < 2)
    throw std::invalid_argument(
        strf("--sample-period must be >= 2 (got %d; 1 would sample every "
             "iteration — drop --sampling for an exact run)",
             opts.sample_period));
  opts.warmup_iters =
      static_cast<int>(cli.get_int("warmup-iters", opts.warmup_iters));
  if (opts.warmup_iters < 0)
    throw std::invalid_argument(
        strf("--warmup-iters must be >= 0 (got %d)", opts.warmup_iters));
  if (cli.has("verify-sampling"))
    opts.verify_sampling =
        cli.get_double("verify-sampling", opts.verify_sampling);
  if (opts.verify_sampling < 0.0 || opts.verify_sampling > 1.0)
    throw std::invalid_argument(
        strf("--verify-sampling must be a fraction in [0, 1] (got %g)",
             opts.verify_sampling));
  if (opts.verify_sampling > 0.0 && !opts.sampling)
    throw std::invalid_argument(
        "--verify-sampling only checks sampled estimates: add --sampling");
  if (opts.sampling && opts.verify_replay)
    throw std::invalid_argument(
        "--sampling cannot be combined with --verify-replay: sampled "
        "records are estimates, never byte-compared (use "
        "--verify-sampling to check them)");
  return opts;
}

util::Json SweepOptions::to_json() const {
  Json j = Json::object();
  j.set("jobs", Json(jobs));
  j.set("cache_dir", Json(cache_dir));
  j.set("use_cache", Json(use_cache));
  j.set("run_retries", Json(run_retries));
  j.set("verify_replay", Json(verify_replay));
  j.set("journal_path", Json(journal_path));
  j.set("resume", Json(resume));
  j.set("isolate", Json(isolate));
  j.set("isolate_timeout_s", Json(isolate_timeout_s));
  j.set("isolate_retries", Json(isolate_retries));
  j.set("cache_cap_bytes", Json(static_cast<unsigned long long>(
                               cache_cap_bytes)));
  j.set("sampling", Json(sampling));
  j.set("sample_period", Json(sample_period));
  j.set("warmup_iters", Json(warmup_iters));
  j.set("verify_sampling", Json(verify_sampling));
  return j;
}

SweepOptions SweepOptions::from_json(const util::Json& j) {
  const std::string where = "options";
  require_object(j, where);
  reject_unknown_keys(j, where,
                      {"jobs", "cache_dir", "use_cache", "run_retries",
                       "verify_replay", "journal_path", "resume", "isolate",
                       "isolate_timeout_s", "isolate_retries",
                       "cache_cap_bytes", "sampling", "sample_period",
                       "warmup_iters", "verify_sampling", "checkpoints"});
  SweepOptions o;
  const long long jobs = get_int_field(j, where, "jobs", o.jobs);
  if (jobs < 0) field_error("options.jobs", "must be >= 0");
  o.jobs = static_cast<int>(jobs);
  o.cache_dir = get_string_field(j, where, "cache_dir", o.cache_dir);
  o.use_cache = get_bool_field(j, where, "use_cache", o.use_cache);
  const long long retries = get_int_field(j, where, "run_retries",
                                          o.run_retries);
  if (retries < 0) field_error("options.run_retries", "must be >= 0");
  o.run_retries = static_cast<int>(retries);
  o.verify_replay = get_bool_field(j, where, "verify_replay", o.verify_replay);
  if (o.verify_replay && !o.use_cache)
    field_error("options.verify_replay",
                "requires use_cache (the verification pass compares "
                "records through the cache encoding)");
  o.journal_path = get_string_field(j, where, "journal_path", o.journal_path);
  o.resume = get_bool_field(j, where, "resume", o.resume);
  o.isolate = get_bool_field(j, where, "isolate", o.isolate);
  if ((o.resume || o.isolate) && o.journal_path.empty())
    o.journal_path = "pasim_sweep.journal";
  o.isolate_timeout_s =
      get_number_field(j, where, "isolate_timeout_s", o.isolate_timeout_s);
  if (o.isolate_timeout_s <= 0.0)
    field_error("options.isolate_timeout_s", "must be > 0");
  const long long iso_retries =
      get_int_field(j, where, "isolate_retries", o.isolate_retries);
  if (iso_retries < 0) field_error("options.isolate_retries", "must be >= 0");
  o.isolate_retries = static_cast<int>(iso_retries);
  const long long cap = get_int_field(j, where, "cache_cap_bytes",
                                      static_cast<long long>(o.cache_cap_bytes));
  if (cap < 0) field_error("options.cache_cap_bytes", "must be >= 0");
  o.cache_cap_bytes = static_cast<std::uint64_t>(cap);
  if (o.cache_cap_bytes > 0 && o.cache_dir.empty())
    field_error("options.cache_cap_bytes",
                "requires a disk cache (set options.cache_dir)");
  o.sampling = get_bool_field(j, where, "sampling", o.sampling);
  const long long period =
      get_int_field(j, where, "sample_period", o.sample_period);
  if (period < 2) field_error("options.sample_period", "must be >= 2");
  o.sample_period = static_cast<int>(period);
  const long long warmup =
      get_int_field(j, where, "warmup_iters", o.warmup_iters);
  if (warmup < 0) field_error("options.warmup_iters", "must be >= 0");
  o.warmup_iters = static_cast<int>(warmup);
  o.verify_sampling =
      get_number_field(j, where, "verify_sampling", o.verify_sampling);
  if (o.verify_sampling < 0.0 || o.verify_sampling > 1.0)
    field_error("options.verify_sampling", "must be a fraction in [0, 1]");
  if (o.verify_sampling > 0.0 && !o.sampling)
    field_error("options.verify_sampling",
                "only checks sampled estimates (set options.sampling)");
  if (o.sampling && o.verify_replay)
    field_error("options.sampling",
                "incompatible with verify_replay: sampled records are "
                "estimates, never byte-compared (use verify_sampling)");
  // Checkpoint warm-starts are gone; every document an earlier build
  // wrote still carries "checkpoints": false, so only true is refused.
  if (get_bool_field(j, where, "checkpoints", false))
    field_error("options.checkpoints",
                "checkpoint warm-starts were removed; drop the member "
                "(sampling is the accelerator for deep iteration grids)");
  return o;
}

Scale SweepSpec::resolved_scale() const {
  if (scale == "paper") return Scale::kPaper;
  if (scale == "small") return Scale::kSmall;
  field_error("scale", strf("unknown scale \"%s\" (expected \"paper\" or "
                            "\"small\")",
                            scale.c_str()));
}

sim::ClusterConfig SweepSpec::resolved_cluster() const {
  if (cluster) return *cluster;
  return resolved_scale() == Scale::kSmall
             ? sim::ClusterConfig::paper_testbed(4)
             : sim::ClusterConfig::paper_testbed();
}

std::vector<int> SweepSpec::resolved_nodes() const {
  if (!nodes.empty()) return nodes;
  return resolved_scale() == Scale::kSmall ? ExperimentEnv::small().nodes
                                           : ExperimentEnv::paper().nodes;
}

std::vector<double> SweepSpec::resolved_freqs() const {
  if (!freqs_mhz.empty()) return freqs_mhz;
  return resolved_scale() == Scale::kSmall ? ExperimentEnv::small().freqs_mhz
                                           : ExperimentEnv::paper().freqs_mhz;
}

double SweepSpec::base_f_mhz() const {
  const std::vector<double> freqs = resolved_freqs();
  double base = freqs.front();
  for (double f : freqs) base = std::min(base, f);
  return base;
}

void SweepSpec::validate() const {
  bool known = false;
  for (const std::string& k : kernel_names()) known = known || k == kernel;
  if (!known)
    field_error("kernel", strf("unknown kernel \"%s\" (expected EP, FT, LU, "
                               "CG or MG)",
                               kernel.c_str()));
  (void)resolved_scale();  // throws on a bad scale string
  for (int n : nodes)
    if (n < 1) field_error("nodes", strf("node count %d must be >= 1", n));
  for (double f : freqs_mhz)
    if (!(f > 0.0))
      field_error("freqs_mhz", strf("frequency %g must be > 0", f));
  if (comm_dvfs_mhz < 0.0)
    field_error("comm_dvfs_mhz", "must be >= 0 (0 disables comm DVFS)");
  if (iterations < 0)
    field_error("iterations",
                "must be >= 0 (0 keeps the scale preset's count)");
}

util::Json SweepSpec::to_json() const {
  validate();
  Json j = Json::object();
  j.set("version", Json(kSchemaVersion));
  j.set("kernel", Json(kernel));
  j.set("scale", Json(scale));
  Json& n = j.set("nodes", Json::array());
  for (int v : nodes) n.push_back(Json(v));
  Json& f = j.set("freqs_mhz", Json::array());
  for (double v : freqs_mhz) f.push_back(Json(v));
  j.set("comm_dvfs_mhz", Json(comm_dvfs_mhz));
  j.set("iterations", Json(iterations));
  j.set("options", options.to_json());
  if (fault) j.set("fault", fault_to_json(*fault));
  return j;
}

SweepSpec SweepSpec::from_json(const util::Json& j) {
  require_object(j, "document");
  reject_unknown_keys(j, "",
                      {"version", "kernel", "scale", "nodes", "freqs_mhz",
                       "comm_dvfs_mhz", "iterations", "options", "fault"});
  const Json* version = j.find("version");
  if (version == nullptr) field_error("version", "required field is missing");
  if (!version->is_number() || (version->as_number() != 1.0 &&
                                version->as_number() !=
                                    static_cast<double>(kSchemaVersion)))
    field_error("version",
                strf("unsupported schema version (this build accepts 1..%d)",
                     kSchemaVersion));
  if (version->as_number() == 1.0) {
    // v1 predates sampled estimation and checkpoint warm-starts: a v1
    // document naming any v2 field is mislabeled, not forward-
    // compatible — reject it the way an unknown key is rejected.
    if (j.find("iterations") != nullptr)
      field_error("iterations", "requires schema version 2");
    if (const Json* o = j.find("options")) {
      if (o->is_object()) {
        for (const char* key : {"sampling", "sample_period", "warmup_iters",
                                "verify_sampling", "checkpoints"}) {
          if (o->find(key) != nullptr)
            field_error(strf("options.%s", key), "requires schema version 2");
        }
      }
    }
  }

  SweepSpec spec;
  spec.kernel = get_string_field(j, "", "kernel", spec.kernel);
  spec.scale = get_string_field(j, "", "scale", spec.scale);
  if (const Json* n = j.find("nodes")) {
    if (!n->is_array()) field_error("nodes", "expected an array of integers");
    for (const Json& v : n->items()) {
      if (!v.is_number() || v.as_number() != std::floor(v.as_number()))
        field_error("nodes", "expected an array of integers");
      spec.nodes.push_back(static_cast<int>(v.as_number()));
    }
  }
  if (const Json* f = j.find("freqs_mhz")) {
    if (!f->is_array()) field_error("freqs_mhz", "expected an array of MHz");
    for (const Json& v : f->items()) {
      if (!v.is_number()) field_error("freqs_mhz", "expected an array of MHz");
      spec.freqs_mhz.push_back(v.as_number());
    }
  }
  spec.comm_dvfs_mhz =
      get_number_field(j, "", "comm_dvfs_mhz", spec.comm_dvfs_mhz);
  spec.iterations = static_cast<int>(
      get_int_field(j, "", "iterations", spec.iterations));
  if (const Json* o = j.find("options"))
    spec.options = SweepOptions::from_json(*o);
  if (const Json* f = j.find("fault")) spec.fault = fault_from_json(*f);
  spec.validate();
  return spec;
}

SweepSpec SweepSpec::parse(const std::string& text) {
  return from_json(Json::parse(text));
}

SweepSpec SweepSpec::load(const std::string& path) {
  const std::optional<std::string> text = util::read_file(path);
  if (!text)
    throw std::invalid_argument(
        strf("cannot read spec file \"%s\"", path.c_str()));
  try {
    return parse(*text);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(strf("%s: %s", path.c_str(), e.what()));
  }
}

namespace {

/// from_cli's merge: the document, then every flag over it.
SweepSpec merge_cli(const util::Cli& cli) {
  SweepSpec spec;
  if (cli.has("spec")) {
    const std::string path = cli.get("spec", "");
    if (path.empty())
      throw std::invalid_argument("--spec needs a file path");
    spec = SweepSpec::load(path);
  }
  if (cli.has("small"))
    spec.scale = cli.get_bool("small", false) ? "small" : "paper";
  if (cli.has("kernel")) spec.kernel = cli.get("kernel", spec.kernel);
  if (cli.has("nodes")) {
    spec.nodes.clear();
    for (long n : cli.get_int_list("nodes", {}))
      spec.nodes.push_back(static_cast<int>(n));
    if (spec.nodes.empty())
      throw std::invalid_argument("--nodes needs a comma-separated list");
  }
  if (cli.has("freqs")) {
    spec.freqs_mhz.clear();
    for (long f : cli.get_int_list("freqs", {}))
      spec.freqs_mhz.push_back(static_cast<double>(f));
    if (spec.freqs_mhz.empty())
      throw std::invalid_argument("--freqs needs a comma-separated list");
  }
  if (cli.has("comm-dvfs"))
    spec.comm_dvfs_mhz = cli.get_double("comm-dvfs", spec.comm_dvfs_mhz);
  if (cli.has("iterations"))
    spec.iterations =
        static_cast<int>(cli.get_int("iterations", spec.iterations));
  if (cli.has("faults")) {
    // --faults 0 explicitly clears a fault block inherited from --spec.
    const double rate = cli.get_double("faults", 0.0);
    if (rate == 0.0)
      spec.fault.reset();
    else
      spec.fault = fault::FaultConfig::from_cli(cli);
  } else if (cli.has("fault-seed") && spec.fault) {
    spec.fault->seed = static_cast<std::uint64_t>(cli.get_int("fault-seed", 1));
  }
  spec.options = SweepOptions::apply_cli(cli, std::move(spec.options));
  spec.observer = obs::Observer::from_cli(cli);
  return spec;
}

}  // namespace

SweepSpec SweepSpec::from_cli(const util::Cli& cli, const char* kernel) {
  try {
    SweepSpec spec = merge_cli(cli);
    if (kernel != nullptr) spec.kernel = kernel;
    spec.validate();
    (void)make_spec_kernel(spec);  // a field the kernel rejects
    return spec;
  } catch (const std::invalid_argument& e) {
    cli.usage_error(e.what());
  }
}

std::vector<std::string> SweepSpec::cli_option_names() {
  return {// the spec document and its axis overrides
          "spec", "small", "kernel", "nodes", "freqs", "comm-dvfs",
          "iterations", "faults", "fault-seed",
          // SweepOptions::apply_cli
          "jobs", "cache", "no-cache", "retries", "verify-replay", "journal",
          "resume", "isolate", "isolate-timeout", "isolate-retries",
          "cache-cap", "sampling", "sample-period", "warmup-iters",
          "verify-sampling",
          // obs::Observer::from_cli
          "trace", "metrics"};
}

}  // namespace pas::analysis
