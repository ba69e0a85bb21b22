// JSONL socket front end for ServeService (DESIGN.md §5k).
//
// One ServeServer listens on either a loopback TCP port (default; port 0
// picks an ephemeral one) or a Unix-domain socket, accepts any number of
// concurrent connections, and runs one reader thread per connection:
// requests are newline-delimited JSON objects, each answered with exactly
// one newline-terminated JSON response in request order (per connection;
// the service interleaves work across connections freely).
//
// The transport adds a single op of its own: {"op":"shutdown"} answers,
// then stops the listener and unblocks wait() — the CI smoke and the bench
// use it for a clean client-driven teardown.  Everything else is passed to
// ServeService::handle_line verbatim.
//
// The server borrows the service; the service (and its cache/pool) may
// outlive the server or serve several transports in sequence.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "serve/service.hpp"

namespace ftrsn::serve {

struct ServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;           ///< TCP port; 0 = ephemeral (read back via port())
  std::string unix_path;  ///< when set, Unix-domain socket instead of TCP
  int backlog = 16;
  /// When set, the bound TCP port (or the unix path) is written here after
  /// listen() — the race-free way for scripts to find an ephemeral port.
  std::string port_file;
};

class ServeServer {
 public:
  ServeServer(ServeService& service, const ServerOptions& options);
  ~ServeServer();

  ServeServer(const ServeServer&) = delete;
  ServeServer& operator=(const ServeServer&) = delete;

  /// Binds, listens and starts the accept thread.  Returns false with a
  /// message in `error` on any socket failure.
  bool start(std::string* error);

  /// Bound TCP port (resolved after start() for port 0), -1 for unix.
  int port() const;

  /// Blocks until a shutdown request arrives or stop() is called.
  void wait();

  /// Stops accepting, unblocks every connection reader, joins all threads.
  /// Idempotent; also run by the destructor.
  void stop();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Driver behind `rsn_tool serve`: parses flags, builds the service and
/// server, prints the endpoint, runs until shutdown.  Flags:
///   --port=N --host=H --unix=PATH --port-file=PATH --threads=N
///   --cache-mb=N --cache-entries=N --timeout-ms=N
/// Honours FTRSN_TRACE / FTRSN_REPORT (prefix "rsn_serve").
int serve_main(const std::vector<std::string>& args);

}  // namespace ftrsn::serve
