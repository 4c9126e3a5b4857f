// The observability layer: registry reset semantics, log-2 histogram bucket
// boundaries, JSON writer escaping, and trace export well-formedness
// (verified by parsing the emitted Chrome trace JSON back).
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <sstream>
#include <thread>

#include "mrt/obs/obs.hpp"

namespace mrt {
namespace {

// ---------------------------------------------------------------------------
// A minimal recursive-descent JSON reader — just enough structure to verify
// that the exporters emit well-formed JSON and to walk into the bits the
// assertions need. Throws std::runtime_error on malformed input.
// ---------------------------------------------------------------------------

struct JsonCursor {
  const std::string& s;
  std::size_t i = 0;

  void fail(const std::string& msg) const {
    throw std::runtime_error(msg + " at offset " + std::to_string(i));
  }
  void ws() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  }
  char peek() {
    ws();
    if (i >= s.size()) fail("unexpected end");
    return s[i];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++i;
  }
  bool consume(char c) {
    if (peek() == c) {
      ++i;
      return true;
    }
    return false;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (i >= s.size()) fail("unterminated string");
      char c = s[i++];
      if (c == '"') return out;
      if (c == '\\') {
        if (i >= s.size()) fail("unterminated escape");
        char e = s[i++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (i + 4 > s.size()) fail("short \\u escape");
            for (int k = 0; k < 4; ++k) {
              if (!std::isxdigit(static_cast<unsigned char>(s[i + k]))) {
                fail("bad \\u escape");
              }
            }
            i += 4;
            out += '?';  // code point identity is irrelevant to the tests
            break;
          }
          default: fail("bad escape");
        }
      } else {
        out += c;
      }
    }
  }

  void parse_number() {
    ws();
    std::size_t start = i;
    if (i < s.size() && (s[i] == '-' || s[i] == '+')) ++i;
    while (i < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[i])) || s[i] == '.' ||
            s[i] == 'e' || s[i] == 'E' || s[i] == '-' || s[i] == '+')) {
      ++i;
    }
    if (i == start) fail("expected number");
  }

  void parse_value() {
    char c = peek();
    if (c == '{') {
      parse_object();
    } else if (c == '[') {
      parse_array();
    } else if (c == '"') {
      parse_string();
    } else if (s.compare(i, 4, "true") == 0) {
      i += 4;
    } else if (s.compare(i, 5, "false") == 0) {
      i += 5;
    } else if (s.compare(i, 4, "null") == 0) {
      i += 4;
    } else {
      parse_number();
    }
  }

  void parse_object() {
    expect('{');
    if (consume('}')) return;
    do {
      parse_string();
      expect(':');
      parse_value();
    } while (consume(','));
    expect('}');
  }

  void parse_array() {
    expect('[');
    if (consume(']')) return;
    do {
      parse_value();
    } while (consume(','));
    expect(']');
  }
};

// Parses the whole document; returns false on any structural error.
bool json_well_formed(const std::string& s) {
  try {
    JsonCursor c{s};
    c.parse_value();
    c.ws();
    return c.i == s.size();
  } catch (const std::exception&) {
    return false;
  }
}

TEST(ObsJson, ParserSelfCheck) {
  EXPECT_TRUE(json_well_formed(R"({"a":[1,2.5,-3e4],"b":"x\"y","c":null})"));
  EXPECT_FALSE(json_well_formed(R"({"a":1,)"));
  EXPECT_FALSE(json_well_formed(R"({"a" 1})"));
  EXPECT_FALSE(json_well_formed("[1 2]"));
  EXPECT_FALSE(json_well_formed("{} extra"));
}

TEST(ObsJson, WriterEscapesAndNests) {
  std::ostringstream out;
  obs::JsonWriter w(out);
  w.begin_object();
  w.key("quote\"and\\slash").value("line\nbreak\ttab");
  w.key("nested").begin_array();
  w.value(std::uint64_t{18446744073709551615ULL});
  w.value(-1.5);
  w.value(true);
  w.begin_object().key("k").value("v").end_object();
  w.end_array();
  w.end_object();
  ASSERT_TRUE(w.complete());
  EXPECT_TRUE(json_well_formed(out.str())) << out.str();
  EXPECT_NE(out.str().find("\\n"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(ObsMetrics, CounterAndGaugeBasics) {
  obs::Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);

  obs::Gauge g;
  g.set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.max_of(2.0);  // lower: ignored
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.max_of(7.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
}

TEST(ObsMetrics, HistogramBucketBoundaries) {
  // Bucket 0 = {0}; bucket i >= 1 = [2^(i-1), 2^i - 1].
  EXPECT_EQ(obs::Histogram::bucket_index(0), 0);
  EXPECT_EQ(obs::Histogram::bucket_index(1), 1);
  EXPECT_EQ(obs::Histogram::bucket_index(2), 2);
  EXPECT_EQ(obs::Histogram::bucket_index(3), 2);
  EXPECT_EQ(obs::Histogram::bucket_index(4), 3);
  EXPECT_EQ(obs::Histogram::bucket_index(7), 3);
  EXPECT_EQ(obs::Histogram::bucket_index(8), 4);
  EXPECT_EQ(obs::Histogram::bucket_index(~std::uint64_t{0}), 64);

  for (int i = 1; i < obs::Histogram::kBuckets; ++i) {
    EXPECT_EQ(obs::Histogram::bucket_index(obs::Histogram::bucket_lower(i)), i);
    EXPECT_EQ(obs::Histogram::bucket_index(obs::Histogram::bucket_upper(i)), i);
    // Buckets tile the range with no gap.
    EXPECT_EQ(obs::Histogram::bucket_lower(i),
              obs::Histogram::bucket_upper(i - 1) + 1);
  }

  obs::Histogram h;
  for (std::uint64_t v : {0u, 1u, 2u, 3u, 4u, 7u, 8u, 1023u, 1024u}) {
    h.record(v);
  }
  EXPECT_EQ(h.count(), 9u);
  EXPECT_EQ(h.sum(), 0u + 1 + 2 + 3 + 4 + 7 + 8 + 1023 + 1024);
  EXPECT_EQ(h.max(), 1024u);
  EXPECT_EQ(h.bucket_count(0), 1u);  // 0
  EXPECT_EQ(h.bucket_count(1), 1u);  // 1
  EXPECT_EQ(h.bucket_count(2), 2u);  // 2, 3
  EXPECT_EQ(h.bucket_count(3), 2u);  // 4, 7
  EXPECT_EQ(h.bucket_count(4), 1u);  // 8
  EXPECT_EQ(h.bucket_count(10), 1u); // 1023 in [512, 1023]
  EXPECT_EQ(h.bucket_count(11), 1u); // 1024 in [1024, 2047]
}

TEST(ObsMetrics, RegistryResetKeepsReferencesValid) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("test.counter");
  obs::Gauge& g = reg.gauge("test.gauge");
  obs::Histogram& h = reg.histogram("test.hist");
  c.add(5);
  g.set(2.5);
  h.record(9);

  // Lookup by the same name returns the same object.
  EXPECT_EQ(&reg.counter("test.counter"), &c);
  EXPECT_EQ(reg.counter_value("test.counter"), 5u);
  EXPECT_DOUBLE_EQ(reg.gauge_value("test.gauge"), 2.5);

  reg.reset();
  // Values are zeroed but registration (and addresses) survive.
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(&reg.counter("test.counter"), &c);
  ASSERT_EQ(reg.counters().size(), 1u);
  EXPECT_EQ(reg.counters()[0].first, "test.counter");

  // The old reference keeps feeding the same registered metric.
  c.add(3);
  EXPECT_EQ(reg.counter_value("test.counter"), 3u);

  // Unknown names read as zero without registering.
  EXPECT_EQ(reg.counter_value("never.registered"), 0u);
  EXPECT_EQ(reg.counters().size(), 1u);
}

TEST(ObsMetrics, RegistryExportsParseBack) {
  obs::Registry reg;
  reg.counter("a.b").add(7);
  reg.gauge("g \"quoted\"").set(1.25);
  reg.histogram("h").record(0);
  reg.histogram("h").record(100);

  std::ostringstream json;
  reg.write_json(json);
  EXPECT_TRUE(json_well_formed(json.str())) << json.str();
  EXPECT_NE(json.str().find("\"a.b\":7"), std::string::npos);

  std::ostringstream csv;
  reg.write_csv(csv);
  EXPECT_NE(csv.str().find("counter,a.b,7"), std::string::npos);
  EXPECT_NE(csv.str().find("histogram_count,h,2"), std::string::npos);
}

TEST(ObsMetrics, EnabledFlagToggles) {
  const bool before = obs::enabled();
  obs::set_enabled(true);
  EXPECT_TRUE(obs::enabled());
  obs::set_enabled(false);
  EXPECT_FALSE(obs::enabled());
  obs::set_enabled(before);
}

TEST(ObsMetrics, ScopedTimerRecordsWhenEnabled) {
  const bool before = obs::enabled();
  obs::Histogram h;
  obs::set_enabled(false);
  { obs::ScopedTimer t(h); }
  EXPECT_EQ(h.count(), 0u);  // disabled: not even a clock read
  obs::set_enabled(true);
  { obs::ScopedTimer t(h); }
  EXPECT_EQ(h.count(), 1u);
  obs::set_enabled(before);
}

// ---------------------------------------------------------------------------
// Quantiles: estimates vs exact distributions. The documented contract
// (metrics.hpp): the estimate lies inside the log-2 bucket holding the true
// nearest-rank sample, so for values >= 1 it is within 2x of the exact
// quantile; bucket 0 ({0}) is exact; the top non-empty bucket clamps to
// max(), which makes quantile(1.0) exact.
// ---------------------------------------------------------------------------

// est within [exact/2, exact*2] — the bucket-bound guarantee for values >= 1.
void expect_within_2x(double est, double exact, const char* what) {
  EXPECT_GE(est, exact / 2.0) << what << " est " << est << " exact " << exact;
  EXPECT_LE(est, exact * 2.0) << what << " est " << est << " exact " << exact;
}

TEST(ObsQuantile, EmptyAndClampedArguments) {
  obs::Histogram h;
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty: 0, never NaN
  h.record(10);
  h.record(20);
  // q is clamped to [0, 1].
  EXPECT_DOUBLE_EQ(h.quantile(-1.0), h.quantile(0.0));
  EXPECT_DOUBLE_EQ(h.quantile(2.0), h.quantile(1.0));
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 20.0);  // top-bucket max() clamp: exact
}

TEST(ObsQuantile, ZerosAreExact) {
  obs::Histogram h;
  for (int i = 0; i < 100; ++i) h.record(0);
  // Bucket 0 holds only {0}: every quantile of an all-zero stream is exact.
  for (double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.quantile(q), 0.0) << "q=" << q;
  }
}

TEST(ObsQuantile, PointMassWithinBucketBound) {
  obs::Histogram h;
  for (int i = 0; i < 1000; ++i) h.record(42);
  // Every exact quantile is 42; 42 lives in bucket [32, 63], clamped above
  // by max() = 42, so estimates fall in [32, 42] — inside the 2x bound.
  for (double q : {0.01, 0.5, 0.9, 0.99}) {
    const double est = h.quantile(q);
    EXPECT_GE(est, 32.0) << "q=" << q;
    EXPECT_LE(est, 42.0) << "q=" << q;
    expect_within_2x(est, 42.0, "point-mass");
  }
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 42.0);  // rank == count: the max, exact
}

TEST(ObsQuantile, UniformWithinBucketBound) {
  obs::Histogram h;
  for (std::uint64_t v = 1; v <= 1024; ++v) h.record(v);
  // Exact q-quantile of uniform 1..1024 under nearest-rank is ceil(1024 q).
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    const double exact = std::ceil(1024.0 * q);
    expect_within_2x(h.quantile(q), exact, "uniform");
  }
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1024.0);
}

TEST(ObsQuantile, GeometricNearestRank) {
  // 512 ones, 256 twos, 128 fours, ... 1 x 512: 1023 samples, heavy head.
  obs::Histogram h;
  std::uint64_t v = 1;
  for (int n = 512; n >= 1; n /= 2, v *= 2) {
    for (int i = 0; i < n; ++i) h.record(v);
  }
  ASSERT_EQ(h.count(), 1023u);
  // Rank ceil(0.5 * 1023) = 512: the last of the ones. Bucket [1, 1] is a
  // single point, so the estimate is exact despite the log-2 coarseness.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.0);
  // Rank 921 lands on the 8s (cum: 512, 768, 896, 960); rank 1013 on the
  // 64s (cum: 992, 1008, 1016). Exact values 8 and 64.
  expect_within_2x(h.quantile(0.9), 8.0, "geometric p90");
  expect_within_2x(h.quantile(0.99), 64.0, "geometric p99");
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 512.0);
}

TEST(ObsMetrics, GaugeSetAndMaxOfSemantics) {
  obs::Gauge g;
  // set() is last-write-wins: it may lower the value.
  g.max_of(5.0);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
  g.set(2.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  // max_of() is a high-water mark: it never lowers.
  g.max_of(1.0);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
  g.max_of(10.0);
  EXPECT_DOUBLE_EQ(g.value(), 10.0);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(ObsMetrics, GaugeMaxOfConcurrentKeepsLargest) {
  // The CAS loop's contract: a larger value is never lost to a smaller
  // racer. 4 threads publish disjoint ranges; the global max must survive.
  obs::Gauge g;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g, t] {
      for (int i = 0; i < kPerThread; ++i) {
        g.max_of(static_cast<double>(t * kPerThread + i));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_DOUBLE_EQ(g.value(), kThreads * kPerThread - 1.0);  // 39999
}

TEST(ObsMetrics, OpenMetricsExport) {
  obs::Registry reg;
  reg.counter("a.b").add(7);
  reg.gauge("g!x").set(1.25);
  obs::Histogram& h = reg.histogram("h");
  h.record(0);
  h.record(3);
  h.record(100);

  std::ostringstream os;
  reg.write_openmetrics(os);
  const std::string om = os.str();

  // Names: mrt_ prefix, non-[A-Za-z0-9_] mapped to '_'; counters _total.
  EXPECT_NE(om.find("# TYPE mrt_a_b counter\n"), std::string::npos) << om;
  EXPECT_NE(om.find("mrt_a_b_total 7\n"), std::string::npos) << om;
  EXPECT_NE(om.find("# TYPE mrt_g_x gauge\n"), std::string::npos) << om;
  EXPECT_NE(om.find("mrt_g_x 1.25\n"), std::string::npos) << om;

  // Histogram buckets are *cumulative*, keyed by the inclusive upper bound
  // of each non-empty log-2 bucket: 0 -> {0}, 3 -> [2,3], 127 -> [64,127].
  EXPECT_NE(om.find("# TYPE mrt_h histogram\n"), std::string::npos) << om;
  EXPECT_NE(om.find("mrt_h_bucket{le=\"0\"} 1\n"), std::string::npos) << om;
  EXPECT_NE(om.find("mrt_h_bucket{le=\"3\"} 2\n"), std::string::npos) << om;
  EXPECT_NE(om.find("mrt_h_bucket{le=\"127\"} 3\n"), std::string::npos) << om;
  EXPECT_NE(om.find("mrt_h_bucket{le=\"+Inf\"} 3\n"), std::string::npos)
      << om;
  EXPECT_NE(om.find("mrt_h_sum 103\n"), std::string::npos) << om;
  EXPECT_NE(om.find("mrt_h_count 3\n"), std::string::npos) << om;
  // Empty buckets are elided.
  EXPECT_EQ(om.find("le=\"1\"}"), std::string::npos) << om;

  // The exposition ends with the OpenMetrics terminator.
  ASSERT_GE(om.size(), 6u);
  EXPECT_EQ(om.rfind("# EOF\n"), om.size() - 6) << om;
}

TEST(ObsMetrics, JsonExportsQuantiles) {
  obs::Registry reg;
  obs::Histogram& h = reg.histogram("lat");
  for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
  std::ostringstream os;
  reg.write_json(os);
  const std::string json = os.str();
  EXPECT_TRUE(json_well_formed(json)) << json;
  EXPECT_NE(json.find("\"p50\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p90\":"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p99\":"), std::string::npos) << json;
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

TEST(ObsTrace, ChromeExportRoundTrips) {
  using obs::EventKind;
  using obs::Subsystem;
  const auto rec = [](std::uint64_t seq, Subsystem s, EventKind k,
                      std::uint32_t stream, int node, int arc,
                      std::int64_t aux, std::uint64_t t_ns,
                      std::uint64_t sim_us) {
    obs::JournalRecord r;
    r.seq = seq;
    r.subsystem = s;
    r.kind = k;
    r.stream = stream;
    r.node = node;
    r.arc = arc;
    r.aux = aux;
    r.t_ns = t_ns;
    r.sim_us = sim_us;
    return r;
  };
  const std::vector<obs::JournalRecord> log = {
      rec(1, Subsystem::Dyn, EventKind::UpdateBegin, 1, -1, -1, 2, 5000, 0),
      rec(2, Subsystem::Dyn, EventKind::DeltaArc, 1, 0, 3, 0, 6000, 0),
      rec(3, Subsystem::Dyn, EventKind::UpdateEnd, 1, -1, -1, 4, 9000, 0),
      rec(4, Subsystem::Sim, EventKind::MsgSend, 2, 3, 1, 1, 0, 10),
      rec(5, Subsystem::Sim, EventKind::Reselect, 2, 3, 3, 1, 0, 12),
      rec(6, Subsystem::Sim, EventKind::LinkDown, 2, 0, 3, 0, 0, 12),
      rec(7, Subsystem::Sim, EventKind::QueueDepth, 2, -1, -1, 4, 0, 13),
      rec(8, Subsystem::Dyn, EventKind::UpdateBegin, 1, -1, -1, 1, 9500, 0),
  };

  std::ostringstream out;
  obs::write_chrome_trace(out, log);
  const std::string trace = out.str();
  EXPECT_TRUE(json_well_formed(trace)) << trace;
  // The required trace-event fields are present.
  EXPECT_NE(trace.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(trace.find("\"dur\":"), std::string::npos);
  EXPECT_NE(trace.find("\"process_name\""), std::string::npos);

  // One event per record, except that the paired begin and end are one.
  const auto count = [&trace](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t at = trace.find(needle); at != std::string::npos;
         at = trace.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("\"ph\":\"X\""), 1u);
  EXPECT_EQ(count("\"ph\":\"i\""), 5u);
  EXPECT_EQ(count("\"ph\":\"C\""), 1u);

  // The paired begin/end is one span on the wall clock, timed from the
  // earliest wall record; the unclosed begin stays an instant.
  EXPECT_NE(trace.find("\"ts\":0,\"name\":\"update\",\"ph\":\"X\","
                       "\"dur\":4,\"args\":{\"ops\":2,\"affected\":4"),
            std::string::npos)
      << trace;
  EXPECT_NE(trace.find("\"name\":\"update_begin\",\"ph\":\"i\""),
            std::string::npos);
  // Sim records keep the simulator's names, at sim time.
  EXPECT_NE(trace.find("\"ts\":10,\"name\":\"advert\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"select\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"link down\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"queue depth\",\"ph\":\"C\",\"ts\":13"),
            std::string::npos);

  // Node 3 and arc 3 are different rows; each row is named.
  const auto tid_of = [&trace](const std::string& row) {
    const std::size_t at = trace.find(",\"args\":{\"name\":\"" + row + "\"}");
    if (at == std::string::npos) return std::string();
    const std::size_t from = trace.rfind("\"tid\":", at);
    return trace.substr(from, at - from);
  };
  EXPECT_FALSE(tid_of("node 3").empty()) << trace;
  EXPECT_FALSE(tid_of("arc 3").empty()) << trace;
  EXPECT_FALSE(tid_of("stream 1").empty()) << trace;
  EXPECT_NE(tid_of("node 3"), tid_of("arc 3"));
}

}  // namespace
}  // namespace mrt
