// sirep_shell — an interactive SQL shell over a replicated SI-Rep
// cluster, in the spirit of psql. Starts N replicas in-process, connects
// through the JDBC-like driver, and reads statements from stdin (or from
// a here-doc / pipe for scripting).
//
//   $ ./sirep_shell            # 3 replicas
//   $ ./sirep_shell 5          # 5 replicas
//   $ echo "CREATE TABLE t (k INT, v INT, PRIMARY KEY (k));" | ./sirep_shell
//
// Meta-commands:
//   \tables            list tables
//   \replicas          replica status + tocommit queue depth
//   \crash N           crash replica N
//   \restart N         online-recover replica N
//   \vacuum            garbage-collect old versions everywhere
//   \autocommit on|off
//   \quit

#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>

#include "cluster/cluster.h"

using sirep::cluster::Cluster;
using sirep::cluster::ClusterOptions;

namespace {

void PrintHelp() {
  std::printf(
      "SQL: CREATE TABLE/INDEX, INSERT, SELECT (joins, GROUP BY), UPDATE, "
      "DELETE, BEGIN, COMMIT, ROLLBACK\n"
      "meta: \\tables \\replicas \\crash N \\restart N \\vacuum "
      "\\autocommit on|off \\help \\quit\n");
}

bool HandleMeta(const std::string& line, Cluster& cluster,
                sirep::client::Connection& conn) {
  std::istringstream in(line);
  std::string cmd;
  in >> cmd;
  if (cmd == "\\help") {
    PrintHelp();
  } else if (cmd == "\\tables") {
    // Ask the connection's current replica.
    for (const auto& name :
         conn.replica()->db()->engine().TableNames()) {
      std::printf("  %s\n", name.c_str());
    }
  } else if (cmd == "\\replicas") {
    for (size_t r = 0; r < cluster.size(); ++r) {
      auto* mw = cluster.replica(r);
      std::printf("  replica %zu (member %u): %s, queue=%zu%s\n", r,
                  mw->member_id(),
                  !mw->IsAlive()          ? "CRASHED"
                  : mw->IsAcceptingClients() ? "live"
                                             : "recovering",
                  mw->PendingQueueSize(),
                  mw == conn.replica() ? "  <- you are here" : "");
    }
  } else if (cmd == "\\crash") {
    size_t n = 0;
    if (in >> n) {
      cluster.CrashReplica(n);
      std::printf("crashed replica %zu\n", n);
    }
  } else if (cmd == "\\restart") {
    size_t n = 0;
    if (in >> n) {
      auto st = cluster.RestartReplica(n);
      std::printf("restart replica %zu: %s\n", n, st.ToString().c_str());
    }
  } else if (cmd == "\\vacuum") {
    std::printf("freed %zu dead versions\n", cluster.VacuumAll());
  } else if (cmd == "\\autocommit") {
    std::string mode;
    in >> mode;
    conn.SetAutoCommit(mode != "off");
    std::printf("autocommit %s\n", conn.autocommit() ? "on" : "off");
  } else if (cmd == "\\quit" || cmd == "\\q") {
    return false;
  } else {
    std::printf("unknown meta-command %s (try \\help)\n", cmd.c_str());
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  size_t replicas = 3;
  if (argc > 1) replicas = std::max(1, std::atoi(argv[1]));

  ClusterOptions options;
  options.num_replicas = replicas;
  Cluster cluster(options);
  if (!cluster.Start().ok()) {
    std::fprintf(stderr, "cluster start failed\n");
    return 1;
  }
  auto conn_result = cluster.Connect();
  if (!conn_result.ok()) {
    std::fprintf(stderr, "connect failed\n");
    return 1;
  }
  auto conn = std::move(conn_result).value();

  std::printf("sirep shell — %zu replicas, connected to member %u. "
              "\\help for help.\n",
              cluster.size(), conn->replica()->member_id());

  std::string line;
  std::string buffer;
  const bool interactive = isatty(fileno(stdin));
  while (true) {
    if (interactive) {
      std::printf(buffer.empty() ? "sirep> " : "   ... ");
      std::fflush(stdout);
    }
    if (!std::getline(std::cin, line)) break;
    // Trim.
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    line = line.substr(first);

    if (line[0] == '\\') {
      if (!HandleMeta(line, cluster, *conn)) break;
      continue;
    }

    // Accumulate until ';' (statements may span lines).
    buffer += line;
    if (buffer.back() != ';') {
      buffer += ' ';
      continue;
    }
    std::string sql = buffer;
    buffer.clear();

    const auto t0 = std::chrono::steady_clock::now();
    auto result = conn->Execute(sql);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      continue;
    }
    const auto& qr = result.value();
    if (!qr.columns.empty()) {
      std::printf("%s(%zu row%s, %.2f ms)\n", qr.ToString().c_str(),
                  qr.NumRows(), qr.NumRows() == 1 ? "" : "s", ms);
    } else {
      std::printf("OK, %lld row(s) affected (%.2f ms)\n",
                  static_cast<long long>(qr.rows_affected), ms);
    }
  }
  return 0;
}
