#include "util/metrics.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <memory>

#include "util/annotations.hpp"
#include "util/assert.hpp"
#include "util/env.hpp"

namespace cobra::util {

// ---------------------------------------------------------------------------
// Modes

MetricsMode parse_metrics_mode(std::string_view name) {
  if (name == "off") return MetricsMode::kOff;
  if (name == "summary") return MetricsMode::kSummary;
  if (name == "rounds") return MetricsMode::kRounds;
  COBRA_CHECK_MSG(false, "unknown metrics mode '"
                             << std::string(name)
                             << "' (expected off|summary|rounds)");
  return MetricsMode::kOff;  // unreachable
}

const char* metrics_mode_name(MetricsMode mode) {
  switch (mode) {
    case MetricsMode::kOff: return "off";
    case MetricsMode::kSummary: return "summary";
    case MetricsMode::kRounds: return "rounds";
  }
  return "off";
}

MetricsMode metrics_mode() { return parse_metrics_mode(metrics()); }

bool metrics_collecting() { return metrics_mode() != MetricsMode::kOff; }

// ---------------------------------------------------------------------------
// Registry

namespace {

struct MetricDef {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  MetricId slot = 0;  // base slot; histograms own kHistogramBuckets slots
};

using Slots = std::array<std::uint64_t, MetricsRegistry::kMaxSlots>;

}  // namespace

struct MetricsRegistry::Impl {
  Mutex mu;
  // Definitions in name order (std::map keeps drain output sorted for
  // free) plus the next free slot index.
  std::map<std::string, MetricDef, std::less<>> defs COBRA_GUARDED_BY(mu);
  std::size_t next_slot COBRA_GUARDED_BY(mu) = 0;
  // Live per-thread slot arrays, plus the folded slots of exited threads
  // (a worker dying between drains must not lose its counts). The
  // *pointers* are guarded; each pointee is a thread-local array its
  // owning thread updates lock-free — drain() may only fold them at
  // quiescence (see the header).
  std::vector<Slots*> threads COBRA_GUARDED_BY(mu);
  Slots retired COBRA_GUARDED_BY(mu) = {};
};

namespace {

// Thread-local slot storage: registers with the registry on first use,
// folds itself into `retired` on thread exit.
struct ThreadSlots {
  MetricsRegistry::Impl* impl = nullptr;
  std::unique_ptr<Slots> slots;

  std::uint64_t* get(MetricsRegistry::Impl& registry_impl) {
    if (!slots) {
      slots = std::make_unique<Slots>();
      impl = &registry_impl;
      MutexLock lock(impl->mu);
      impl->threads.push_back(slots.get());
    }
    return slots->data();
  }

  ~ThreadSlots() {
    if (!slots) return;
    MutexLock lock(impl->mu);
    for (std::size_t i = 0; i < slots->size(); ++i)
      impl->retired[i] += (*slots)[i];
    // Gauge slots fold by max, not sum — several exiting threads must not
    // inflate a high-water mark.
    for (const auto& [name, def] : impl->defs) {
      if (def.kind != MetricKind::kGauge) continue;
      impl->retired[def.slot] =
          std::max(impl->retired[def.slot] - (*slots)[def.slot],
                   (*slots)[def.slot]);
    }
    std::erase(impl->threads, slots.get());
  }
};

thread_local ThreadSlots tl_slots;

}  // namespace

MetricsRegistry& MetricsRegistry::instance() {
  // Leaked on purpose: thread-local ThreadSlots destructors may run
  // after static destruction would have torn a non-leaked instance down.
  static MetricsRegistry* const registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Impl& MetricsRegistry::impl() {
  static Impl* const impl = new Impl();
  return *impl;
}

MetricId MetricsRegistry::register_metric(std::string_view name,
                                          MetricKind kind,
                                          std::size_t slots) {
  COBRA_CHECK_MSG(!name.empty(), "metric name must not be empty");
  Impl& im = impl();
  MutexLock lock(im.mu);
  auto it = im.defs.find(name);
  if (it != im.defs.end()) {
    COBRA_CHECK_MSG(it->second.kind == kind,
                    "metric '" << std::string(name)
                               << "' re-registered as a different kind");
    return it->second.slot;
  }
  COBRA_CHECK_MSG(im.next_slot + slots <= kMaxSlots,
                  "metric registry slot budget exhausted");
  MetricDef def;
  def.name = std::string(name);
  def.kind = kind;
  def.slot = static_cast<MetricId>(im.next_slot);
  im.next_slot += slots;
  im.defs.emplace(def.name, def);
  return def.slot;
}

MetricId MetricsRegistry::counter(std::string_view name) {
  return register_metric(name, MetricKind::kCounter, 1);
}

MetricId MetricsRegistry::gauge(std::string_view name) {
  return register_metric(name, MetricKind::kGauge, 1);
}

MetricId MetricsRegistry::histogram(std::string_view name) {
  return register_metric(name, MetricKind::kHistogram, kHistogramBuckets);
}

std::uint64_t* MetricsRegistry::local_slots() {
  return tl_slots.get(impl());
}

void MetricsRegistry::add(MetricId id, std::uint64_t delta) {
  local_slots()[id] += delta;
}

void MetricsRegistry::gauge_max(MetricId id, std::uint64_t value) {
  std::uint64_t* slots = local_slots();
  slots[id] = std::max(slots[id], value);
}

void MetricsRegistry::observe(MetricId id, std::uint64_t value) {
  local_slots()[id + std::bit_width(value)] += 1;
}

MetricsSnapshot MetricsRegistry::drain(bool reset) {
  Impl& im = impl();
  MutexLock lock(im.mu);
  Slots folded{};
  for (std::size_t i = 0; i < folded.size(); ++i) folded[i] = im.retired[i];
  for (Slots* t : im.threads)
    for (std::size_t i = 0; i < folded.size(); ++i) folded[i] += (*t)[i];
  // Gauges fold by max, not sum: redo those slots from the defs.
  for (const auto& [name, def] : im.defs) {
    if (def.kind != MetricKind::kGauge) continue;
    std::uint64_t hi = im.retired[def.slot];
    for (Slots* t : im.threads) hi = std::max(hi, (*t)[def.slot]);
    folded[def.slot] = hi;
  }
  if (reset) {
    im.retired.fill(0);
    for (Slots* t : im.threads) t->fill(0);
  }

  MetricsSnapshot snapshot;
  for (const auto& [name, def] : im.defs) {
    MetricValue v;
    v.name = name;
    v.kind = def.kind;
    if (def.kind == MetricKind::kHistogram) {
      bool any = false;
      v.buckets.assign(kHistogramBuckets, 0);
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        v.buckets[b] = folded[def.slot + b];
        any = any || v.buckets[b] != 0;
      }
      if (!any) continue;
    } else {
      v.value = folded[def.slot];
      if (v.value == 0) continue;
    }
    snapshot.values.push_back(std::move(v));
  }
  return snapshot;
}

// ---------------------------------------------------------------------------
// Snapshots

const MetricValue* MetricsSnapshot::find(std::string_view name) const {
  auto it = std::lower_bound(
      values.begin(), values.end(), name,
      [](const MetricValue& v, std::string_view n) { return v.name < n; });
  if (it == values.end() || it->name != name) return nullptr;
  return &*it;
}

std::uint64_t MetricsSnapshot::value_of(std::string_view name) const {
  const MetricValue* v = find(name);
  return v == nullptr ? 0 : v->value;
}

namespace {

bool nonzero(const MetricValue& v) {
  if (v.kind == MetricKind::kHistogram)
    return std::any_of(v.buckets.begin(), v.buckets.end(),
                       [](std::uint64_t b) { return b != 0; });
  return v.value != 0;
}

}  // namespace

MetricsSnapshot merge(const MetricsSnapshot& a, const MetricsSnapshot& b) {
  // A sorted two-way walk combining entries with the same name; entries
  // that end up all zero drop.
  MetricsSnapshot out;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.values.size() || j < b.values.size()) {
    if (j == b.values.size() ||
        (i < a.values.size() && a.values[i].name < b.values[j].name)) {
      out.values.push_back(a.values[i++]);
      continue;
    }
    if (i == a.values.size() || b.values[j].name < a.values[i].name) {
      MetricValue v = b.values[j++];
      if (nonzero(v)) out.values.push_back(std::move(v));
      continue;
    }
    MetricValue v = a.values[i++];
    const MetricValue& other = b.values[j++];
    COBRA_CHECK_MSG(v.kind == other.kind,
                    "metric '" << v.name << "' has mismatched kinds");
    switch (v.kind) {
      case MetricKind::kCounter:
        v.value += other.value;
        break;
      case MetricKind::kGauge:
        v.value = std::max(v.value, other.value);
        break;
      case MetricKind::kHistogram:
        if (v.buckets.size() < other.buckets.size())
          v.buckets.resize(other.buckets.size(), 0);
        for (std::size_t k = 0; k < other.buckets.size(); ++k)
          v.buckets[k] += other.buckets[k];
        break;
    }
    if (nonzero(v)) out.values.push_back(std::move(v));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Canonical JSON emission

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          out += "\\u00";
          out.push_back(hex[(c >> 4) & 0xF]);
          out.push_back(hex[c & 0xF]);
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

namespace {

void append_section(std::string& out, const char* section,
                    const MetricsSnapshot& snapshot, MetricKind kind,
                    bool& first_section) {
  std::string body;
  bool first = true;
  for (const MetricValue& v : snapshot.values) {
    if (v.kind != kind) continue;
    if (!first) body.push_back(',');
    first = false;
    body += json_quote(v.name);
    body.push_back(':');
    if (kind == MetricKind::kHistogram) {
      body.push_back('{');
      bool first_bucket = true;
      for (std::size_t b = 0; b < v.buckets.size(); ++b) {
        if (v.buckets[b] == 0) continue;
        if (!first_bucket) body.push_back(',');
        first_bucket = false;
        body += json_quote(std::to_string(b));
        body.push_back(':');
        body += std::to_string(v.buckets[b]);
      }
      body.push_back('}');
    } else {
      body += std::to_string(v.value);
    }
  }
  if (first) return;  // empty section: omit
  if (!first_section) out.push_back(',');
  first_section = false;
  out += json_quote(section);
  out.push_back(':');
  out.push_back('{');
  out += body;
  out.push_back('}');
}

}  // namespace

std::string snapshot_to_json(const MetricsSnapshot& snapshot) {
  std::string out = "{";
  bool first = true;
  append_section(out, "counters", snapshot, MetricKind::kCounter, first);
  append_section(out, "gauges", snapshot, MetricKind::kGauge, first);
  append_section(out, "histograms", snapshot, MetricKind::kHistogram, first);
  out.push_back('}');
  return out;
}

// ---------------------------------------------------------------------------
// JSON parsing

namespace {

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    COBRA_CHECK_MSG(pos_ == text_.size(),
                    "trailing garbage at byte " << pos_);
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) {
    COBRA_CHECK_MSG(false, "malformed JSON: " << what << " at byte " << pos_);
    std::abort();  // unreachable: COBRA_CHECK_MSG throws
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          if (code > 0x7F) fail("non-ASCII \\u escape unsupported");
          out.push_back(static_cast<char>(code));
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parse_value() {
    skip_ws();
    char c = peek();
    JsonValue v;
    if (c == '{') {
      v.type = JsonValue::Type::kObject;
      ++pos_;
      skip_ws();
      if (peek() == '}') {
        ++pos_;
        return v;
      }
      while (true) {
        skip_ws();
        std::string key = parse_string();
        skip_ws();
        expect(':');
        v.object.emplace_back(std::move(key), parse_value());
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        return v;
      }
    }
    if (c == '[') {
      v.type = JsonValue::Type::kArray;
      ++pos_;
      skip_ws();
      if (peek() == ']') {
        ++pos_;
        return v;
      }
      while (true) {
        v.array.push_back(parse_value());
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect(']');
        return v;
      }
    }
    if (c == '"') {
      v.type = JsonValue::Type::kString;
      v.text = parse_string();
      return v;
    }
    if (c >= '0' && c <= '9') {
      v.type = JsonValue::Type::kUInt;
      std::uint64_t n = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        const std::uint64_t digit =
            static_cast<std::uint64_t>(text_[pos_] - '0');
        COBRA_CHECK_MSG(n <= (UINT64_MAX - digit) / 10,
                        "integer overflow at byte " << pos_);
        n = n * 10 + digit;
        ++pos_;
      }
      v.number = n;
      return v;
    }
    if (c == 'n' && text_.substr(pos_, 4) == "null") {
      pos_ += 4;
      return v;
    }
    fail("unexpected value");
    return v;  // unreachable
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json(std::string_view text) {
  return JsonParser(text).parse_document();
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

std::uint64_t JsonValue::uint_or(std::string_view key,
                                 std::uint64_t fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->type == Type::kUInt) ? v->number : fallback;
}

namespace {

void parse_section(const JsonValue& doc, const char* section, MetricKind kind,
                   std::vector<MetricValue>& out) {
  const JsonValue* sec = doc.find(section);
  if (sec == nullptr) return;
  COBRA_CHECK_MSG(sec->type == JsonValue::Type::kObject,
                  "metrics section '" << section << "' is not an object");
  for (const auto& [name, val] : sec->object) {
    MetricValue v;
    v.name = name;
    v.kind = kind;
    if (kind == MetricKind::kHistogram) {
      COBRA_CHECK_MSG(val.type == JsonValue::Type::kObject,
                      "histogram '" << name << "' is not an object");
      v.buckets.assign(kHistogramBuckets, 0);
      for (const auto& [bucket, n] : val.object) {
        COBRA_CHECK_MSG(n.type == JsonValue::Type::kUInt,
                        "histogram '" << name << "' bucket is not a number");
        std::size_t b = 0;
        for (char c : bucket) {
          COBRA_CHECK_MSG(c >= '0' && c <= '9',
                          "histogram '" << name << "' has a bad bucket key");
          b = b * 10 + static_cast<std::size_t>(c - '0');
        }
        COBRA_CHECK_MSG(b < kHistogramBuckets,
                        "histogram '" << name << "' bucket out of range");
        v.buckets[b] = n.number;
      }
    } else {
      COBRA_CHECK_MSG(val.type == JsonValue::Type::kUInt,
                      "metric '" << name << "' is not a number");
      v.value = val.number;
    }
    out.push_back(std::move(v));
  }
}

}  // namespace

MetricsSnapshot snapshot_from_json_value(const JsonValue& doc) {
  COBRA_CHECK_MSG(doc.type == JsonValue::Type::kObject,
                  "metrics snapshot is not a JSON object");
  MetricsSnapshot snapshot;
  parse_section(doc, "counters", MetricKind::kCounter, snapshot.values);
  parse_section(doc, "gauges", MetricKind::kGauge, snapshot.values);
  parse_section(doc, "histograms", MetricKind::kHistogram, snapshot.values);
  std::sort(snapshot.values.begin(), snapshot.values.end(),
            [](const MetricValue& a, const MetricValue& b) {
              return a.name < b.name;
            });
  return snapshot;
}

MetricsSnapshot snapshot_from_json(std::string_view json) {
  return snapshot_from_json_value(parse_json(json));
}

}  // namespace cobra::util
