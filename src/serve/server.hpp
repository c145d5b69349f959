// The serving daemon: registry + batcher + metrics behind a newline-
// delimited JSON protocol.
//
// Transport is deliberately plain - one JSON request per input line, one
// JSON response per output line, in request order - so the daemon composes
// with anything that can speak pipes: the CI smoke test, the bench load
// generator, a socket wrapper.  Requests:
//
//   {"op":"predict","x":"0101...","model":"default","label":3,"id":7}
//       -> {"ok":true,"id":7,"prediction":2,"model":"<hash16>","lat_us":...}
//   {"op":"load","path":"model.tm"}      register a .tm file
//   {"op":"load","hash":"<prefix>"}      hot-load from the artifact store
//   {"op":"swap","alias":"default","target":"<hash-or-prefix>"}
//   {"op":"models"}                      catalogue listing
//   {"op":"status"}                      metrics snapshot inline
//   {"op":"shutdown"}                    drain in-flight work and exit
//
// `op` defaults to "predict" and `model` to "default", so the minimal
// request is just {"x":"..."}.  Failures come back in-order as
// {"ok":false,"error":"<typed code>","detail":...} - a malformed line or a
// shed request never kills the daemon.
//
// Responses are emitted strictly in request order, each as soon as it
// exists.  The reading thread parses a line and pushes its slot (a reply
// built on the spot, or a batcher future) into a window of at most
// `max_inflight` unwritten replies; one writer thread pops the window in
// order, waits on the front future, writes the reply and flushes.  A reply
// never waits for a later request line.  Optionally a background thread
// snapshots metrics to `status_file` (atomic rename) every
// `status_interval_s` - the live `serve-status` document readable while the
// daemon runs.
#pragma once

#include <atomic>
#include <condition_variable>
#include <future>
#include <iosfwd>
#include <mutex>
#include <string>
#include <thread>

#include "serve/batcher.hpp"
#include "serve/metrics.hpp"
#include "serve/registry.hpp"
#include "train/worker_pool.hpp"
#include "util/json.hpp"

namespace matador::serve {

struct ServerOptions {
    BatcherOptions batch;
    unsigned threads = 0;        ///< WorkerPool::resolve semantics
    std::string cache_dir;       ///< artifact store to scan_store(), "" = none
    std::string status_file;     ///< periodic serve-status JSON, "" = off
    double status_interval_s = 1.0;
    std::size_t max_inflight = 256;  ///< replies read but not yet written
};

class Server {
public:
    explicit Server(ServerOptions options = {});
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    ModelRegistry& registry() { return registry_; }
    ServeMetrics& metrics() { return metrics_; }
    Batcher& batcher() { return batcher_; }

    /// Serve NDJSON requests from `in` until EOF or a shutdown op, writing
    /// one response line per request to `out` from a writer thread.  Unties
    /// `in` from any output stream (a tied read would flush `out` under the
    /// writer).  Returns 0 once every reply is written.
    int run(std::istream& in, std::ostream& out);

private:
    /// One slot in the in-order response window: either an already-built
    /// response or (when `future` is valid) a predict still being batched.
    struct Pending {
        util::Json immediate;
        std::future<Reply> future;
        util::Json id;
    };

    Pending process_line(const std::string& line);
    util::Json handle_control(const util::Json& request, const std::string& op);
    static util::Json error_response(const util::Json& id,
                                     const std::string& code,
                                     const std::string& detail,
                                     double retry_after_ms = 0.0);
    void emit(std::ostream& out, Pending& pending);

    void write_status_file() const;
    void status_loop();

    ServerOptions options_;
    train::WorkerPool pool_;
    ModelRegistry registry_;
    ServeMetrics metrics_;
    Batcher batcher_;

    std::mutex status_mu_;
    std::condition_variable status_cv_;
    bool status_stop_ = false;
    std::thread status_thread_;

    std::atomic<bool> shutdown_requested_{false};
};

}  // namespace matador::serve
