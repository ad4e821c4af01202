// Metrics exposition endpoint (ISSUE 5): the per-middleware loopback
// HTTP listener serving /metrics (Prometheus text) and /flightrecorder,
// and Cluster::StartMetricsEndpoints() wiring one server per replica
// plus the merged /cluster/metrics aggregator. The requests here are
// what `curl` sends — raw sockets, HTTP/1.0, one request per
// connection.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <utility>

#include "cluster/cluster.h"
#include "middleware/metrics_http.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

namespace sirep {
namespace {

/// A socket connected to 127.0.0.1:`port`, or -1.
int Connect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// One curl-style request: connect, send, read to EOF.
std::string HttpGet(uint16_t port, const std::string& path) {
  const int fd = Connect(port);
  if (fd < 0) return "";
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return "";
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(MetricsHttpServerTest, ServesRegisteredEndpoint) {
  middleware::MetricsHttpServer server;
  server.AddEndpoint("/ping", "text/plain", [] { return "pong"; });
  ASSERT_TRUE(server.Start().ok());
  ASSERT_NE(server.port(), 0);

  const std::string response = HttpGet(server.port(), "/ping");
  EXPECT_EQ(response.rfind("HTTP/1.0 200", 0), 0u) << response;
  EXPECT_NE(response.find("Content-Type: text/plain"), std::string::npos);
  EXPECT_NE(response.find("\r\n\r\npong"), std::string::npos);
}

TEST(MetricsHttpServerTest, UnknownPathIs404) {
  middleware::MetricsHttpServer server;
  server.AddEndpoint("/ping", "text/plain", [] { return "pong"; });
  ASSERT_TRUE(server.Start().ok());
  const std::string response = HttpGet(server.port(), "/nope");
  EXPECT_EQ(response.rfind("HTTP/1.0 404", 0), 0u) << response;
}

TEST(MetricsHttpServerTest, HandlerEvaluatedPerRequest) {
  middleware::MetricsHttpServer server;
  int calls = 0;
  server.AddEndpoint("/n", "text/plain",
                     [&calls] { return std::to_string(++calls); });
  ASSERT_TRUE(server.Start().ok());
  EXPECT_NE(HttpGet(server.port(), "/n").find("\r\n\r\n1"),
            std::string::npos);
  EXPECT_NE(HttpGet(server.port(), "/n").find("\r\n\r\n2"),
            std::string::npos);
  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST(MetricsHttpServerTest, SilentClientDoesNotBlockStop) {
  middleware::MetricsHttpServer server;
  server.AddEndpoint("/ping", "text/plain", [] { return "pong"; });
  ASSERT_TRUE(server.Start().ok());
  // A client that connects and never sends its request line.
  const int silent = Connect(server.port());
  ASSERT_GE(silent, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  std::promise<void> stopped;
  std::future<void> done = stopped.get_future();
  std::thread stopper([&] {
    server.Stop();
    stopped.set_value();
  });
  const bool returned =
      done.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  ::close(silent);  // lets a Stop() that hung finish
  stopper.join();
  EXPECT_TRUE(returned) << "Stop() blocked behind a silent client";
}

TEST(MetricsHttpServerTest, OccupiedPortFallsBackToEphemeral) {
  // A restarting replica can find its old exposition port still held —
  // a predecessor listener not fully closed, or an unrelated squatter.
  // Start() must not fail the restart over a scrape port: it retries on
  // a kernel-assigned ephemeral port and reports the real one via
  // port().
  middleware::MetricsHttpServer squatter;
  squatter.AddEndpoint("/ping", "text/plain", [] { return "old"; });
  ASSERT_TRUE(squatter.Start().ok());
  const uint16_t taken = squatter.port();
  ASSERT_NE(taken, 0);

  middleware::MetricsHttpServer server;
  server.AddEndpoint("/ping", "text/plain", [] { return "new"; });
  ASSERT_TRUE(server.Start(taken).ok());
  EXPECT_NE(server.port(), 0);
  EXPECT_NE(server.port(), taken);
  EXPECT_NE(HttpGet(server.port(), "/ping").find("\r\n\r\nnew"),
            std::string::npos);
  // The squatter is untouched.
  EXPECT_NE(HttpGet(taken, "/ping").find("\r\n\r\nold"), std::string::npos);

  // Once the squatter is gone the original port is bindable again (the
  // listener sets SO_REUSEADDR, so TIME_WAIT remnants don't block it).
  squatter.Stop();
  middleware::MetricsHttpServer reclaimer;
  reclaimer.AddEndpoint("/ping", "text/plain", [] { return "back"; });
  ASSERT_TRUE(reclaimer.Start(taken).ok());
  EXPECT_EQ(reclaimer.port(), taken);
}

TEST(ClusterMetricsEndpointsTest, ScrapeDuringTraffic) {
  cluster::ClusterOptions options;
  options.num_replicas = 2;
  cluster::Cluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster
                  .ExecuteEverywhere(
                      "CREATE TABLE t (k INT, v INT, PRIMARY KEY (k))")
                  .ok());
  auto* mw = cluster.replica(0);
  auto handle = std::move(mw->BeginTxn()).value();
  ASSERT_TRUE(mw->Execute(handle, "INSERT INTO t VALUES (1, 1)").ok());
  ASSERT_TRUE(mw->CommitTxn(handle).ok());
  cluster.Quiesce();

  ASSERT_TRUE(cluster.StartMetricsEndpoints().ok());
  ASSERT_TRUE(cluster.StartMetricsEndpoints().ok());  // idempotent
  const auto ports = cluster.MetricsPorts();
  ASSERT_EQ(ports.size(), 2u);

  for (const uint16_t port : ports) {
    const std::string metrics = HttpGet(port, "/metrics");
    EXPECT_EQ(metrics.rfind("HTTP/1.0 200", 0), 0u) << metrics;
    EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
    // Valid Prometheus exposition: counter series plus histogram
    // buckets with the +Inf bound.
    EXPECT_NE(metrics.find("mw_committed"), std::string::npos);
    EXPECT_NE(metrics.find("le=\"+Inf\""), std::string::npos);

    const std::string recorder = HttpGet(port, "/flightrecorder");
    EXPECT_EQ(recorder.rfind("HTTP/1.0 200", 0), 0u);

    // The aggregator merges every registry: gcs + mw + storage series
    // appear on any replica's port.
    const std::string merged = HttpGet(port, "/cluster/metrics");
    EXPECT_EQ(merged.rfind("HTTP/1.0 200", 0), 0u);
    EXPECT_NE(merged.find("gcs_messages_delivered"), std::string::npos);
    EXPECT_NE(merged.find("mw_committed"), std::string::npos);
  }

  cluster.StopMetricsEndpoints();
  EXPECT_TRUE(cluster.MetricsPorts().empty());
}

TEST(ClusterMetricsEndpointsTest, HealthzReportsRoleAndView) {
  cluster::ClusterOptions options;
  options.num_replicas = 2;
  cluster::Cluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  // Views reach each delivery thread asynchronously: wait until both
  // replicas have seen the two-member view before asserting on it.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while ((cluster.replica(0)->GetHealth().view_members < 2 ||
          cluster.replica(1)->GetHealth().view_members < 2) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(cluster.StartMetricsEndpoints().ok());
  const auto ports = cluster.MetricsPorts();
  ASSERT_EQ(ports.size(), 2u);

  for (const uint16_t port : ports) {
    const std::string health = HttpGet(port, "/healthz");
    EXPECT_EQ(health.rfind("HTTP/1.0 200", 0), 0u) << health;
    EXPECT_NE(health.find("application/json"), std::string::npos);
    const size_t split = health.find("\r\n\r\n");
    ASSERT_NE(split, std::string::npos) << health;
    // Parse() views its input: the text must outlive the parsed value.
    const std::string text = health.substr(split + 4);
    auto body = obs::json::Parse(text);
    ASSERT_TRUE(body.ok()) << body.status() << ": " << health;
    const obs::json::Value& json = body.value();
    const auto number = [&](const char* key) {
      const obs::json::Value* field = json.Find(key);
      int64_t value = 0;
      EXPECT_TRUE(field != nullptr && field->AsI64(&value)) << key;
      return value;
    };
    const obs::json::Value* role = json.Find("role");
    const obs::json::Value* mode = json.Find("mode");
    ASSERT_TRUE(role != nullptr && mode != nullptr) << health;
    EXPECT_EQ(role->StringOr(""), "live") << health;
    EXPECT_EQ(mode->StringOr(""), "srca-rep");
    EXPECT_EQ(number("view_members"), 2);
    EXPECT_EQ(number("applier_threads"), 8);
    // Full replication: no held-partition subset.
    EXPECT_EQ(number("held_partitions"), -1);
  }

  // The body must match what GetHealth() reports directly.
  const auto health = cluster.replica(0)->GetHealth();
  EXPECT_EQ(health.role, "live");
  EXPECT_EQ(health.view_members, 2u);

  cluster.StopMetricsEndpoints();
}

TEST(ClusterMetricsEndpointsTest, HealthzReflectsShutdown) {
  cluster::ClusterOptions options;
  options.num_replicas = 2;
  cluster::Cluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  cluster.replica(1)->Shutdown();
  const auto health = cluster.replica(1)->GetHealth();
  EXPECT_EQ(health.role, "shutdown");
  EXPECT_NE(cluster.replica(1)->HealthJson().find("\"role\":\"shutdown\""),
            std::string::npos);
}

TEST(ClusterMetricsEndpointsTest, ProfileAndMetricsJsonEndpoints) {
  obs::Profiler::Global().StartSampling(std::chrono::microseconds(500));
  cluster::ClusterOptions options;
  options.num_replicas = 2;
  cluster::Cluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster
                  .ExecuteEverywhere(
                      "CREATE TABLE t (k INT, v INT, PRIMARY KEY (k))")
                  .ok());
  auto* mw = cluster.replica(0);
  auto handle = std::move(mw->BeginTxn()).value();
  ASSERT_TRUE(mw->Execute(handle, "INSERT INTO t VALUES (1, 1)").ok());
  ASSERT_TRUE(mw->CommitTxn(handle).ok());
  cluster.Quiesce();

  ASSERT_TRUE(cluster.StartMetricsEndpoints().ok());
  const auto ports = cluster.MetricsPorts();
  ASSERT_EQ(ports.size(), 2u);

  const std::string profile = HttpGet(ports[0], "/profile");
  EXPECT_EQ(profile.rfind("HTTP/1.0 200", 0), 0u) << profile;
  EXPECT_NE(profile.find("\"sampling\":true"), std::string::npos);
  EXPECT_NE(profile.find("\"sections\""), std::string::npos);

  // /metrics.json serves the registry snapshot the bench scraper
  // consumes: it must parse via MetricsSnapshot::FromJson and contain
  // the commit counter the transaction above bumped.
  const std::string body = HttpGet(ports[0], "/metrics.json");
  EXPECT_EQ(body.rfind("HTTP/1.0 200", 0), 0u);
  const size_t split = body.find("\r\n\r\n");
  ASSERT_NE(split, std::string::npos);
  auto snap = obs::MetricsSnapshot::FromJson(body.substr(split + 4));
  ASSERT_TRUE(snap.ok()) << snap.status().message();
  EXPECT_EQ(snap.value().counters.at("mw.committed"), 1u);
  // The lock-contention families registered at construction are there.
  EXPECT_GT(snap.value().counters.at("mw.lock.tocommit.acquires"), 0u);

  cluster.StopMetricsEndpoints();
  obs::Profiler::Global().StopSampling();
}

}  // namespace
}  // namespace sirep
