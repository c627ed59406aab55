// Tests for the live telemetry plane: Prometheus text rendering, /healthz
// staleness logic, the tx.manifest.v1 run manifest (including the provider
// registrations from tx::simd / tx::alloc / tx::par), the TYXE_* environment
// audit, and the HTTP server end to end over a real loopback socket.
#include "obs/live.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <string>

#include "obs/event_sink.h"
#include "obs/hist.h"
#include "obs/manifest.h"
#include "obs/registry.h"
#include "obs/timer.h"
#include "par/pool.h"
#include "tensor/alloc.h"
#include "tensor/simd.h"
#include "util/env.h"

namespace {

using tx::obs::registry;

class LiveTest : public ::testing::Test {
 protected:
  void SetUp() override { registry().clear(); }
  void TearDown() override { registry().clear(); }
};

/// Minimal HTTP GET over loopback; returns the full response (headers+body).
std::string http_get(int port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return "";
  }
  const std::string req =
      "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  (void)!::send(fd, req.data(), req.size(), 0);
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return out;
}

// --- Manifest (providers must still be registered: run these first, before
// --- any reset_for_testing call wipes the static registrations).

TEST_F(LiveTest, ManifestIncludesProviderFields) {
  // Touch the provider TUs so the linker keeps their registrars.
  (void)tx::par::num_threads();
  (void)tx::simd::level_name();
  (void)tx::alloc::enabled();
  const std::string doc = tx::obs::manifest::json();
  EXPECT_NE(doc.find("\"schema\": \"tx.manifest.v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"git_sha\": \""), std::string::npos);
  EXPECT_NE(doc.find("\"build_type\": \""), std::string::npos);
  EXPECT_NE(doc.find("\"simd_level\": \""), std::string::npos);
  EXPECT_NE(doc.find("\"threads\": "), std::string::npos);
  EXPECT_NE(doc.find("\"arena\": \""), std::string::npos);
  // Full env table with defaults.
  EXPECT_NE(doc.find("\"TYXE_SIMD\""), std::string::npos);
  EXPECT_NE(doc.find("\"TYXE_NUM_THREADS\""), std::string::npos);
  EXPECT_NE(doc.find("\"unknown_env\": ["), std::string::npos);
}

TEST_F(LiveTest, SnapshotEmbedsManifestSection) {
  registry().counter("svi.steps").add(3);
  const std::string doc =
      tx::obs::EventSink::render_snapshot_json("live_test");
  EXPECT_NE(doc.find("\"schema\": \"tx.obs.v1\""), std::string::npos);
  EXPECT_NE(doc.find("\"manifest\": {"), std::string::npos);
  EXPECT_NE(doc.find("\"tx.manifest.v1\""), std::string::npos);
}

TEST_F(LiveTest, ManifestSetFieldAndLateProvider) {
  tx::obs::manifest::reset_for_testing();
  tx::obs::manifest::set_field("seed", std::int64_t{42});
  tx::obs::manifest::capture();
  // Providers registered after capture publish immediately.
  tx::obs::manifest::register_provider(
      [] { tx::obs::manifest::set_field("late", std::string("yes")); });
  const std::string doc = tx::obs::manifest::json();
  EXPECT_NE(doc.find("\"seed\": 42"), std::string::npos);
  EXPECT_NE(doc.find("\"late\": \"yes\""), std::string::npos);
}

// --- Environment audit.

TEST_F(LiveTest, EnvRegistryKnowsTheKnobs) {
  EXPECT_TRUE(tx::env::is_known("TYXE_NUM_THREADS"));
  EXPECT_TRUE(tx::env::is_known("TYXE_SIMD"));
  EXPECT_TRUE(tx::env::is_known("TYXE_OBS_HTTP"));
  EXPECT_FALSE(tx::env::is_known("TYXE_TREADS"));  // the typo this catches
  EXPECT_GE(tx::env::known_vars().size(), 10u);
}

TEST_F(LiveTest, EnvAuditFlagsUnknownVars) {
  ::setenv("TYXE_DEFINITELY_A_TYPO", "1", 1);
  const auto unknown = tx::env::unknown_set_vars();
  bool found = false;
  for (const auto& name : unknown) {
    if (name == "TYXE_DEFINITELY_A_TYPO") found = true;
    EXPECT_FALSE(tx::env::is_known(name)) << name;
  }
  EXPECT_TRUE(found);
  // The unknown variable also lands in the manifest.
  const std::string doc = tx::obs::manifest::json();
  EXPECT_NE(doc.find("\"TYXE_DEFINITELY_A_TYPO\""), std::string::npos);
  ::unsetenv("TYXE_DEFINITELY_A_TYPO");
}

// --- Prometheus rendering.

TEST_F(LiveTest, PrometheusNameSanitization) {
  EXPECT_EQ(tx::obs::live::prometheus_name("svi.steps"), "tx_svi_steps");
  EXPECT_EQ(tx::obs::live::prometheus_name("span.fit/step"),
            "tx_span_fit_step");
  EXPECT_EQ(tx::obs::live::prometheus_name("a-b c"), "tx_a_b_c");
}

TEST_F(LiveTest, PrometheusRendersAllMetricKinds) {
  auto& reg = registry();
  reg.counter("svi.steps").add(7);
  reg.gauge("svi.loss").set(1.25);
  reg.log_histogram("svi.step_seconds").record(0.01);
  reg.log_histogram("svi.step_seconds").record(0.02);
  const std::string text = tx::obs::live::render_prometheus(reg);

  EXPECT_NE(text.find("# TYPE tx_svi_steps counter\ntx_svi_steps 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE tx_svi_loss gauge\ntx_svi_loss 1.25\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE tx_svi_step_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("tx_svi_step_seconds_bucket{le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("tx_svi_step_seconds_count 2\n"), std::string::npos);
  EXPECT_NE(text.find("tx_svi_step_seconds_sum "), std::string::npos);
}

TEST_F(LiveTest, PrometheusBucketsAreCumulative) {
  auto& reg = registry();
  auto& h = reg.log_histogram("lat");
  h.record(0.001);
  h.record(0.001);
  h.record(1.0);
  const std::string text = tx::obs::live::render_prometheus(reg);
  // Parse every le-bucket value in order; they must be non-decreasing and
  // end at the total count.
  std::int64_t prev = -1;
  std::size_t pos = 0;
  int buckets = 0;
  while ((pos = text.find("tx_lat_bucket{le=", pos)) != std::string::npos) {
    const std::size_t sp = text.find("} ", pos);
    ASSERT_NE(sp, std::string::npos);
    const std::int64_t v = std::atoll(text.c_str() + sp + 2);
    EXPECT_GE(v, prev);
    prev = v;
    ++buckets;
    pos = sp;
  }
  EXPECT_GE(buckets, 2);
  EXPECT_EQ(prev, 3);  // the +Inf bucket equals the count
}

// --- /healthz logic.

TEST_F(LiveTest, HealthzIdleWithoutHeartbeat) {
  int status = 0;
  const std::string body = tx::obs::live::render_healthz(30.0, status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"status\": \"idle\""), std::string::npos);
  // Probing health must not create the gauge.
  EXPECT_EQ(registry().gauges().count("obs.heartbeat_seconds"), 0u);
}

TEST_F(LiveTest, HealthzOkThenStale) {
  registry().gauge("obs.heartbeat_seconds").set(tx::obs::now_seconds());
  int status = 0;
  std::string body = tx::obs::live::render_healthz(30.0, status);
  EXPECT_EQ(status, 200);
  EXPECT_NE(body.find("\"status\": \"ok\""), std::string::npos);

  registry().gauge("obs.heartbeat_seconds").set(tx::obs::now_seconds() - 60.0);
  body = tx::obs::live::render_healthz(30.0, status);
  EXPECT_EQ(status, 503);
  EXPECT_NE(body.find("\"status\": \"stale\""), std::string::npos);
}

// --- The HTTP server end to end.

TEST_F(LiveTest, ServerServesAllEndpoints) {
  auto& reg = registry();
  reg.counter("svi.steps").add(5);
  reg.log_histogram("svi.step_seconds").record(0.05);

  tx::obs::live::Server server({0, "live_test"});
  ASSERT_TRUE(server.start());
  ASSERT_TRUE(server.running());
  ASSERT_GT(server.port(), 0);

  const std::string metrics = http_get(server.port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("tx_svi_steps 5"), std::string::npos);

  const std::string health = http_get(server.port(), "/healthz");
  EXPECT_NE(health.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(health.find("\"status\""), std::string::npos);

  const std::string snapshot = http_get(server.port(), "/snapshot");
  EXPECT_NE(snapshot.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(snapshot.find("\"schema\": \"tx.obs.v1\""), std::string::npos);
  EXPECT_NE(snapshot.find("\"bench\": \"live_test\""), std::string::npos);
  EXPECT_NE(snapshot.find("\"manifest\""), std::string::npos);

  const std::string manifest = http_get(server.port(), "/manifest");
  EXPECT_NE(manifest.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(manifest.find("\"tx.manifest.v1\""), std::string::npos);

  const std::string missing = http_get(server.port(), "/nope");
  EXPECT_NE(missing.find("HTTP/1.1 404"), std::string::npos);

  // Scrapes were counted (4 found + 1 not-found).
  EXPECT_EQ(reg.counters().at("obs.http_requests"), 5);
  EXPECT_EQ(reg.counters().at("obs.http_not_found"), 1);

  server.stop();
  EXPECT_FALSE(server.running());
}

TEST_F(LiveTest, ServerStopIsIdempotentAndRestartable) {
  tx::obs::live::Server server({0, "live_test"});
  ASSERT_TRUE(server.start());
  const int port = server.port();
  EXPECT_GT(port, 0);
  server.stop();
  server.stop();  // no-op
  EXPECT_FALSE(server.running());
  // A second server can bind a fresh ephemeral port afterwards.
  tx::obs::live::Server again({0, "live_test"});
  ASSERT_TRUE(again.start());
  EXPECT_GT(again.port(), 0);
  again.stop();
}

TEST_F(LiveTest, ServerRejectsNonGet) {
  tx::obs::live::Server server({0, "live_test"});
  ASSERT_TRUE(server.start());
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string req = "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n";
  (void)!::send(fd, req.data(), req.size(), 0);
  std::string out;
  char buf[1024];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_NE(out.find("405"), std::string::npos);
  server.stop();
}

}  // namespace
