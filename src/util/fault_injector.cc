#include "util/fault_injector.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "obs/metrics.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace ustdb {
namespace util {

std::atomic<FaultInjector*> FaultInjector::active_{nullptr};

std::string_view FaultPointName(FaultPoint point) {
  switch (point) {
    case FaultPoint::kQueueAdmission:
      return "queue_admission";
    case FaultPoint::kDispatch:
      return "dispatch";
    case FaultPoint::kEngineBuild:
      return "engine_build";
    case FaultPoint::kKernelDispatch:
      return "kernel_dispatch";
    case FaultPoint::kCacheAdmission:
      return "cache_admission";
    case FaultPoint::kMerge:
      return "merge";
    case FaultPoint::kIngest:
      return "ingest";
  }
  return "unknown";
}

namespace {

std::string_view FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kFail:
      return "fail";
    case FaultKind::kThrow:
      return "throw";
    case FaultKind::kStall:
      return "stall";
  }
  return "unknown";
}

/// Parses "50ms" / "250us" / "1s" into microseconds.
Result<std::chrono::microseconds> ParseDuration(std::string_view s) {
  size_t digits = 0;
  while (digits < s.size() &&
         (std::isdigit(static_cast<unsigned char>(s[digits])) != 0)) {
    ++digits;
  }
  if (digits == 0) {
    return Status::InvalidArgument("duration must start with digits: '" +
                                   std::string(s) + "'");
  }
  auto value = ParseU64(s.substr(0, digits));
  if (!value.ok()) return value.status();
  const std::string_view suffix = s.substr(digits);
  uint64_t factor = 0;
  if (suffix == "us") {
    factor = 1;
  } else if (suffix == "ms") {
    factor = 1000;
  } else if (suffix == "s") {
    factor = 1000000;
  } else {
    return Status::InvalidArgument("duration needs a us/ms/s suffix: '" +
                                   std::string(s) + "'");
  }
  return std::chrono::microseconds(*value * factor);
}

/// Resolves `site` to a point and an optional shard restriction.
Status ParseSite(std::string_view site, FaultPoint* point, int32_t* shard) {
  *shard = -1;
  for (int p = 0; p < kNumFaultPoints; ++p) {
    if (site == FaultPointName(static_cast<FaultPoint>(p))) {
      *point = static_cast<FaultPoint>(p);
      return Status::OK();
    }
  }
  constexpr std::string_view kShardPrefix = "shard";
  if (site.size() > kShardPrefix.size() &&
      site.substr(0, kShardPrefix.size()) == kShardPrefix) {
    auto index = ParseU64(site.substr(kShardPrefix.size()));
    if (index.ok() && *index <= 0x7fffffff) {
      *point = FaultPoint::kDispatch;
      *shard = static_cast<int32_t>(*index);
      return Status::OK();
    }
  }
  return Status::InvalidArgument("unknown fault site '" + std::string(site) +
                                 "'");
}

/// Per-rule fire counters on the global registry, so injected faults show
/// up next to the service/executor metrics they perturb. Resolved once at
/// parse time; a detached test registry is not supported here — fault
/// counts are also readable directly via FaultInjector::fired().
obs::Counter* FireCounter(const FaultRule& rule) {
  obs::Labels labels{
      {"fault_point", std::string(FaultPointName(rule.point))},
      {"kind", std::string(FaultKindName(rule.kind))},
  };
  if (rule.shard >= 0) labels.emplace("shard", std::to_string(rule.shard));
  return obs::MetricsRegistry::Global()->GetCounter(
      "ustdb_faults_injected_total", labels,
      "Fault-injector rule firings by point and kind");
}

}  // namespace

Result<std::unique_ptr<FaultInjector>> FaultInjector::Parse(
    std::string_view spec, uint64_t seed) {
  std::unique_ptr<FaultInjector> injector(new FaultInjector(seed));
  for (std::string_view entry_raw : Split(spec, ';')) {
    const std::string_view entry = Trim(entry_raw);
    if (entry.empty()) continue;
    const std::vector<std::string_view> fields = Split(entry, ':');
    if (fields.size() < 2) {
      return Status::InvalidArgument("fault entry needs site:action: '" +
                                     std::string(entry) + "'");
    }
    FaultRule rule;
    USTDB_RETURN_NOT_OK(ParseSite(Trim(fields[0]), &rule.point, &rule.shard));
    const std::string_view action = Trim(fields[1]);
    if (action == "fail") {
      rule.kind = FaultKind::kFail;
    } else if (action == "throw") {
      rule.kind = FaultKind::kThrow;
    } else if (action == "stall") {
      rule.kind = FaultKind::kStall;
    } else {
      return Status::InvalidArgument("unknown fault action '" +
                                     std::string(action) + "' in '" +
                                     std::string(entry) + "'");
    }
    for (size_t i = 2; i < fields.size(); ++i) {
      const std::string_view arg = Trim(fields[i]);
      const bool has_alpha = std::any_of(arg.begin(), arg.end(), [](char c) {
        return std::isalpha(static_cast<unsigned char>(c)) != 0;
      });
      if (has_alpha) {  // a duration: digits + us/ms/s suffix
        if (rule.kind != FaultKind::kStall) {
          return Status::InvalidArgument(
              "duration arg is only valid for stall: '" + std::string(entry) +
              "'");
        }
        auto duration = ParseDuration(arg);
        if (!duration.ok()) return duration.status();
        rule.stall = *duration;
        continue;
      }
      auto probability = ParseDouble(arg);
      if (!probability.ok() || *probability <= 0.0 || *probability > 1.0) {
        return Status::InvalidArgument("fault probability must be in (0,1]: '" +
                                       std::string(entry) + "'");
      }
      rule.probability = *probability;
    }
    injector->by_point_[static_cast<int>(rule.point)].push_back(
        static_cast<uint32_t>(injector->rules_.size()));
    injector->rules_.push_back(rule);
    injector->fire_counters_.push_back(FireCounter(rule));
  }
  return injector;
}

bool FaultInjector::Fires(size_t rule_index, uint64_t draw) const {
  const FaultRule& rule = rules_[rule_index];
  if (rule.probability >= 1.0) return true;
  // One SplitMix64 step over (seed, point, rule, draw): deterministic and
  // uncorrelated across points and rules.
  SplitMix64 mix(seed_ ^
                 (0x9E3779B97f4A7C15ULL *
                  (static_cast<uint64_t>(rule_index) * 131 +
                   static_cast<uint64_t>(rule.point) + 1)) ^
                 (draw * 0x2545F4914F6CDD1DULL));
  const uint64_t threshold =
      static_cast<uint64_t>(rule.probability * 18446744073709551615.0);
  return mix.Next() < threshold;
}

Status FaultInjector::Inject(FaultPoint point, int32_t shard) {
  const int p = static_cast<int>(point);
  if (by_point_[p].empty()) return Status::OK();
  const uint64_t draw = draws_[p].fetch_add(1, std::memory_order_relaxed);
  for (uint32_t rule_index : by_point_[p]) {
    const FaultRule& rule = rules_[rule_index];
    if (rule.shard >= 0 && rule.shard != shard) continue;
    if (!Fires(rule_index, draw)) continue;
    fired_[p].fetch_add(1, std::memory_order_relaxed);
    fire_counters_[rule_index]->Add(1);
    switch (rule.kind) {
      case FaultKind::kStall:
        std::this_thread::sleep_for(rule.stall);
        continue;  // a stall perturbs timing, later rules still apply
      case FaultKind::kFail:
        return Status::Unavailable(
            "injected fault at " + std::string(FaultPointName(point)) +
            (shard >= 0 ? " (shard " + std::to_string(shard) + ")" : ""));
      case FaultKind::kThrow:
        throw FaultInjectedError("injected fault at " +
                                 std::string(FaultPointName(point)));
    }
  }
  return Status::OK();
}

uint64_t FaultInjector::total_fired() const {
  uint64_t total = 0;
  for (const auto& counter : fired_) {
    total += counter.load(std::memory_order_relaxed);
  }
  return total;
}

namespace {

/// Installs the env-spec injector during static initialization, before
/// main() spawns any query thread. A malformed spec is reported once on
/// stderr and ignored (the process must stay usable). The scope object is
/// intentionally leaked so the injector outlives every static destructor.
struct EnvFaultInit {
  EnvFaultInit() {
    const char* spec = std::getenv("USTDB_FAULT_SPEC");
    if (spec == nullptr || *spec == '\0') return;
    uint64_t seed = 0x5EEDULL;
    if (const char* seed_env = std::getenv("USTDB_FAULT_SEED")) {
      auto parsed = ParseU64(seed_env);
      if (parsed.ok()) seed = *parsed;
    }
    auto injector = FaultInjector::Parse(spec, seed);
    if (!injector.ok()) {
      std::fprintf(stderr, "ustdb: ignoring USTDB_FAULT_SPEC: %s\n",
                   injector.status().ToString().c_str());
      return;
    }
    new ScopedFaultInjection(std::move(injector).ValueOrDie());  // leaked
  }
};

EnvFaultInit g_env_fault_init;

}  // namespace

}  // namespace util
}  // namespace ustdb
