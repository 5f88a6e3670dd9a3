// serve_mixed: an open-loop schedule of request frames over loopback into
// an in-process serve::Server. One client thread sends on a fixed-rate
// clock over min(nproc, 4) connections and never waits for an answer
// before sending the next request, so a stalled server builds a queue
// instead of slowing the client. Every latency is timed from the time the
// request was due, not from when it was sent.
//
// The mix: short requests (mega_mixed / gap_dp, stretched:16:power_longhaul
// / power_dp) beside long poly_scale:300 / bcd_poly_gap ones, with about a
// quarter canonical repeats of earlier instances and validate on.
//
// A run is a sequence of fixed-rate slices over a prefix of one seeded
// request stream. Each slice starts a fresh server (cold cache, untimed),
// so slices are independent and share their inputs. Slices at kLoRate
// (p50_ms, p99_ms) and kHiRate (p99_ms.hi, p99_ms.short, solves_per_s)
// take turns for 60% of the run, so both sample the same mix of host
// conditions; each of those metrics is the median over its slices. Then
// the ladder kLadder, low to high, one step per kLadderStepS
// (max_rate_rps), until two steps in a row fail.
//
// BENCHMARK.json does not list this workload: its latencies, mostly
// thread wake-ups, swing between minutes on shared hosts far beyond any
// end-to-end bound (perfbench/README.md). solve_cold's traced run calls
// measure_serve_layer, so the serve layer is still measured.

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#include <arpa/inet.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "gapsched/io/json.hpp"
#include "gapsched/prep/prep.hpp"
#include "gapsched/scenarios/scenarios.hpp"
#include "gapsched/serve/protocol.hpp"
#include "gapsched/serve/server.hpp"
#include "gapsched/util/prng.hpp"

namespace perfbench {

namespace {

namespace io = gapsched::io;
namespace serve = gapsched::serve;

/// The two fixed rates (requests per second) and the requests in one of
/// their slices: 1.5 s at the low rate, 1 s at the high one. Both counts
/// leave ten samples beyond a slice's p99.
constexpr double kLoRate = 700;
constexpr std::size_t kLoSlice = 1050;
constexpr double kHiRate = 1500;
constexpr std::size_t kHiSlice = 1500;
constexpr double kLadder[] = {600,  750,  940,  1170, 1460, 1830, 2290, 2860,
                              3580, 4470, 5590, 6990, 8730, 10900, 13600};
constexpr double kLadderStepS = 1.0;
/// Longest ladder step, in requests: the length of the request stream.
constexpr std::size_t kStreamLength = 6000;
/// p99 limit of a ladder step, from the due time.
constexpr double kLimitMs = 50.0;
/// Answers still missing this long after a step's last due time count as
/// dropped.
constexpr double kDrainTimeoutS = 20.0;
constexpr double kRepeatShare = 0.25;
constexpr std::int64_t kSpinNs = 5'000'000;

struct Family {
  const char* scenario;
  const char* solver;
  engine::Objective objective;
  double share;
  bool bcd;
};

constexpr Family kFamilies[] = {
    {"mega_mixed", "gap_dp", engine::Objective::kGaps, 0.50, false},
    {"stretched:16:power_longhaul", "power_dp", engine::Objective::kPower,
     0.25, false},
    {"poly_scale:300", "bcd_poly_gap", engine::Objective::kGaps, 0.25, true},
};

/// One request of the stream: its reference, family and encoded frame.
struct Send {
  std::size_t ref = 0;
  bool bcd = false;
  std::string frame;
};

struct Setup {
  std::vector<Reference> refs;  // one per distinct canonical instance
  std::vector<Task> sample;     // every kSampleEvery-th distinct task
  std::vector<Send> sends;      // the request stream, frame id = index
  std::vector<double> encode_us;
  std::vector<double> frame_bytes;
};

/// Distinct tasks solved for references per batch, and the window of
/// recent distinct draws per family a repeat picks from: both bound the
/// memory of a long schedule.
constexpr std::size_t kReferenceBatch = 256;
constexpr std::size_t kRepeatWindow = 256;
constexpr std::size_t kSampleEvery = 64;

/// Draws, solves the references of, and encodes the first `count`
/// requests of the stream. A repeat resends one of the family's recent
/// draws, a canonical duplicate the server cache can serve; draws that
/// happen to be canonically equal share one reference too.
bool set_up(const Options& options, std::size_t count, Tracer& tracer,
            Setup* out, std::string* error) {
  *out = Setup{};
  engine::Engine registry_owner({.threads = 1, .cache = false});
  gapsched::Prng rng(mix_seed(options.seed, 10));
  std::unordered_map<std::uint64_t, std::size_t> ref_of_key;
  std::vector<std::vector<std::shared_ptr<const Task>>> recent(
      std::size(kFamilies));
  std::vector<Task> pending;
  auto solve_pending = [&]() {
    std::vector<Reference> refs;
    if (!solve_references(pending, &refs, error)) return false;
    for (std::size_t k = 0; k < pending.size(); ++k) {
      out->refs[pending[k].ref] = refs[k];
    }
    pending.clear();
    return true;
  };
  std::uint64_t draws = 0;
  for (std::size_t k = 0; k < count; ++k) {
    double u = rng.uniform01();
    std::size_t f = 0;
    while (f + 1 < std::size(kFamilies) && u >= kFamilies[f].share) {
      u -= kFamilies[f].share;
      ++f;
    }
    std::vector<std::shared_ptr<const Task>>& window = recent[f];
    std::shared_ptr<const Task> task;
    if (!window.empty() && rng.chance(kRepeatShare)) {
      task = window[rng.index(window.size())];
    } else {
      const Family& fam = kFamilies[f];
      auto fresh = std::make_shared<Task>();
      fresh->solver = fam.solver;
      fresh->bcd = fam.bcd;
      fresh->request = make_request(
          *gapsched::scenarios::make_scenario(
              fam.scenario, mix_seed(options.seed, 11, draws++)),
          fam.objective);
      const engine::Solver* solver =
          registry_owner.registry().find(fam.solver);
      const std::uint64_t digest =
          engine::make_cache_key(
              solver->info(), fresh->request.objective,
              fresh->request.params,
              gapsched::prep::canonicalize(fresh->request.instance).instance)
              .digest;
      const auto [it, inserted] =
          ref_of_key.try_emplace(digest, out->refs.size());
      fresh->ref = it->second;
      if (inserted) {
        out->refs.emplace_back();
        if (out->refs.size() % kSampleEvery == 1) out->sample.push_back(*fresh);
        pending.push_back(*fresh);
        if (pending.size() >= kReferenceBatch && !solve_pending()) {
          return false;
        }
      }
      if (window.size() >= kRepeatWindow) {
        window.erase(window.begin());
      }
      window.push_back(fresh);
      task = std::move(fresh);
    }
    Span span(tracer, "io.request_to_json", -1, 0, true);
    std::string frame = serve::request_frame(
        static_cast<std::int64_t>(k), task->solver, task->request);
    span.close();
    frame.push_back('\n');
    out->encode_us.push_back(span.elapsed_us());
    out->frame_bytes.push_back(static_cast<double>(frame.size()));
    out->sends.push_back({task->ref, task->bcd, std::move(frame)});
}
  return pending.empty() || solve_pending();
}

/// A non-blocking loopback client connection.
struct Conn {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  serve::LineBuffer in{std::size_t{64} << 20};
};

bool dial(int port, Conn* conn, std::string* error) {
  conn->fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (conn->fd < 0) {
    *error = std::strerror(errno);
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(conn->fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0) {
    *error = std::strerror(errno);
    return false;
  }
  int one = 1;
  ::setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(conn->fd, F_SETFL, ::fcntl(conn->fd, F_GETFL) | O_NONBLOCK);
  return true;
}

/// Writes as much of the pending output as the socket takes.
bool flush(Conn& conn) {
  while (conn.out_off < conn.out.size()) {
    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_off,
                             conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK;
    conn.out_off += static_cast<std::size_t>(n);
  }
  conn.out.clear();
  conn.out_off = 0;
  return true;
}

/// The id of a result or error frame line; -1 for other frames.
std::int64_t frame_id(const std::string& line, bool* is_error) {
  static constexpr char kResult[] = "{\"frame\":\"result\",\"id\":";
  *is_error = false;
  if (line.compare(0, sizeof kResult - 1, kResult) == 0) {
    return std::strtoll(line.c_str() + sizeof kResult - 1, nullptr, 10);
  }
  if (line.find("\"frame\":\"error\"") != std::string::npos) {
    *is_error = true;
    const auto head = io::frame_head_from_json(line);
    return head.has_value() ? head->id : -1;
  }
  return -1;
}

struct Request {
  std::int64_t due = 0;
  std::int64_t sent = 0;
  std::int64_t arrival = -1;
  bool error = false;
  std::string line;
};

/// What one fixed-rate step measured.
struct StepOutcome {
  double rate = 0.0;
  std::vector<double> all_ms;    // from due time, verified answers
  std::vector<double> short_ms;  // short families only
  std::vector<double> late_ms;   // generator lateness per send
  std::vector<double> overhead_ms;  // round trip minus server stage sum
  std::size_t answered_in_window = 0;  // answers by the last due time
  double send_s = 0.0;                 // first to last due time
  std::size_t backlog_max = 0;
  bool backlog_grew = false;
  std::size_t verified = 0;
  double span_s = 0.0;  // first due to last arrival
};

class Client {
 public:
  Client(const Setup& setup, Tally& tally) : setup_(setup), tally_(tally) {}

  /// Sends the first `count` requests of the stream over `conns` on a
  /// fixed-rate clock, collects every answer (or gives up kDrainTimeoutS
  /// after the last due time), then decodes and checks each answer.
  StepOutcome run(std::vector<Conn>& conns_, double rate, std::size_t count,
                  Tracer& tracer_, LayerStats* layer) {
    StepOutcome out;
    out.rate = rate;
    std::vector<Request> reqs(count);
    const std::int64_t period = static_cast<std::int64_t>(1e9 / rate);
    const std::int64_t start = now_ns() + 1'000'000;
    for (std::size_t k = 0; k < count; ++k) {
      reqs[k].due = start + static_cast<std::int64_t>(k) * period;
    }
    const std::int64_t last_due = count > 0 ? reqs[count - 1].due : start;
    const std::int64_t give_up =
        last_due + static_cast<std::int64_t>(kDrainTimeoutS * 1e9);
    // Backlog samples at 30 equal points of the sending window.
    const std::int64_t sample_every = std::max<std::int64_t>(
        1, (last_due - start) / 30);
    std::int64_t next_sample = start;
    std::vector<std::size_t> samples;

    std::size_t next = 0;
    std::size_t answered = 0;
    std::vector<pollfd> fds(conns_.size());
    char buf[1 << 16];
    while (answered < count) {
      std::int64_t now = now_ns();
      if (now > give_up) break;
      while (next < count && reqs[next].due <= now) {
        Conn& conn = conns_[next % conns_.size()];
        conn.out += setup_.sends[next].frame;
        reqs[next].sent = now;
        ++next;
      }
      bool broken = false;
      for (Conn& conn : conns_) {
        if (!conn.out.empty() && !flush(conn)) broken = true;
      }
      if (broken) break;  // unanswered requests count as dropped
      while (now >= next_sample && next_sample <= last_due) {
        std::size_t due = 0;
        while (due < count && reqs[due].due <= next_sample) ++due;
        const std::size_t backlog = due > answered ? due - answered : 0;
        samples.push_back(backlog);
        out.backlog_max = std::max(out.backlog_max, backlog);
        next_sample += sample_every;
      }
      for (std::size_t c = 0; c < conns_.size(); ++c) {
        const int events = POLLIN | (conns_[c].out.empty() ? 0 : POLLOUT);
        fds[c] = {conns_[c].fd, static_cast<short>(events), 0};
      }
      // While sends are due within kSpinNs the client polls without
      // sleeping: waking a sleeping thread on a virtual CPU can take
      // milliseconds, which would make the generator itself late.
      std::int64_t wait_ns = 50'000'000;
      if (next < count) {
        wait_ns = reqs[next].due - now;
        if (wait_ns < kSpinNs) wait_ns = 0;
      }
      timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                  static_cast<long>(wait_ns % 1'000'000'000)};
      if (::ppoll(fds.data(), fds.size(), &ts, nullptr) < 0 && errno != EINTR) {
        break;
      }
      for (std::size_t c = 0; c < conns_.size(); ++c) {
        if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        for (;;) {
          const ssize_t got = ::recv(conns_[c].fd, buf, sizeof buf, 0);
          if (got <= 0) break;
          conns_[c].in.append(
              std::string_view(buf, static_cast<std::size_t>(got)));
        }
        const std::int64_t arrival = now_ns();
        while (auto line = conns_[c].in.next()) {
          bool is_error = false;
          const std::int64_t id = frame_id(*line, &is_error);
          const std::int64_t k = id;
          if (k < 0 || k >= static_cast<std::int64_t>(count) ||
              reqs[static_cast<std::size_t>(k)].arrival >= 0) {
            continue;  // hello frame or stray id
          }
          Request& req = reqs[static_cast<std::size_t>(k)];
          req.arrival = arrival;
          req.error = is_error;
          req.line = std::move(*line);
          ++answered;
        }
      }
    }

    // Decode and gate every answer.
    std::int64_t last_arrival = start;
    for (std::size_t k = 0; k < count; ++k) {
      Request& req = reqs[k];
      const Send& send = setup_.sends[k];
      out.late_ms.push_back(lateness_ms(req.due, req.sent));
      if (req.arrival < 0) {
        tally_.fail("dropped: no answer within the drain timeout");
        continue;
      }
      if (req.error) {
        tally_.fail("error frame: " + req.line);
        continue;
      }
      last_arrival = std::max(last_arrival, req.arrival);
      Span decode(tracer_, "io.result_from_json");
      const auto result = io::result_from_json(req.line);
      decode.close();
      decode_us_.push_back(decode.elapsed_us());
      result_bytes_.push_back(static_cast<double>(req.line.size() + 1));
      if (!result.has_value()) {
        tally_.fail("undecodable result frame");
        continue;
      }
      const std::string why = check_answer(*result, setup_.refs[send.ref]);
      if (!why.empty()) {
        tally_.fail(std::string(send.bcd ? "bcd_poly_gap" : "short") + ": " +
                    why);
        if (layer != nullptr && !result->audit_error.empty()) {
          layer->add_refuted();
        }
        continue;
      }
      tally_.pass();
      ++out.verified;
      const double ms = due_latency_ms(req.due, req.arrival);
      out.all_ms.push_back(ms);
      if (!send.bcd) out.short_ms.push_back(ms);
      double stage_ms = 0.0;
      for (const engine::StageStats& s : result->stats.stages) stage_ms += s.ms;
      const double round_trip = due_latency_ms(req.sent, req.arrival);
      out.overhead_ms.push_back(round_trip - stage_ms);
      if (layer != nullptr) layer->add(result->stats, send.bcd, round_trip);
      if (tracer_.enabled()) {
        // The round trip from the actual send, with the server's stages
        // inside it: its self time is everything the serve layer adds.
        const std::int64_t trip = tracer_.add("serve.round_trip", req.sent,
                                              req.arrival, -1, 1);
        tracer_.add_stages(trip, req.sent, result->stats, send.bcd, false, 1);
      }
      req.line.clear();
      req.line.shrink_to_fit();
    }
    out.span_s = static_cast<double>(last_arrival - start) / 1e9;
    out.send_s = static_cast<double>(last_due - start) / 1e9;
    for (const Request& req : reqs) {
      if (req.arrival >= 0 && req.arrival <= last_due) ++out.answered_in_window;
    }
    // Growth beyond the requests one latency limit's worth of arrivals
    // would queue.
    out.backlog_grew = backlog_grows(
        samples, static_cast<std::size_t>(rate * kLimitMs / 1e3));
    return out;
  }

  const std::vector<double>& decode_us() const { return decode_us_; }
  const std::vector<double>& result_bytes() const { return result_bytes_; }

 private:
  const Setup& setup_;
  Tally& tally_;
  std::vector<double> decode_us_;
  std::vector<double> result_bytes_;
};

/// Asks the server for its stats frame over `conn` (blocking).
std::optional<io::ServerStatsWire> fetch_stats(Conn& conn) {
  conn.out = serve::stats_request_frame() + "\n";
  const std::int64_t give_up = now_ns() + 5'000'000'000;
  char buf[1 << 16];
  while (now_ns() < give_up) {
    flush(conn);
    pollfd fd{conn.fd, POLLIN, 0};
    ::poll(&fd, 1, 50);
    for (;;) {
      const ssize_t got = ::recv(conn.fd, buf, sizeof buf, 0);
      if (got <= 0) break;
      conn.in.append(std::string_view(buf, static_cast<std::size_t>(got)));
    }
    while (auto line = conn.in.next()) {
      if (line->find("\"frame\":\"stats\"") != std::string::npos) {
        return io::server_stats_from_json(*line);
      }
    }
  }
  return std::nullopt;
}

/// Answers per second the server completed while a step was sending:
/// its throughput, which is its capacity once the backlog grows.
double completion_rate(const StepOutcome& step) {
  return step.send_s > 0.0
             ? static_cast<double>(step.answered_in_window) / step.send_s
             : 0.0;
}

/// The highest ladder step whose p99 stayed under kLimitMs with a backlog
/// that did not grow, refined toward the failing step above it by that
/// step's completion rate (clamped between the two offered rates): the
/// rate the server sustained. 0 when no step passed.
double max_rate(const std::vector<StepOutcome>& ladder,
                const std::vector<double>& p99) {
  std::size_t best = ladder.size();
  for (std::size_t s = 0; s < ladder.size(); ++s) {
    if (p99[s] <= kLimitMs && !ladder[s].backlog_grew) best = s;
  }
  if (best == ladder.size()) return 0.0;
  const double pass = ladder[best].rate;
  if (best + 1 == ladder.size()) return pass;
  return std::clamp(completion_rate(ladder[best + 1]), pass,
                    ladder[best + 1].rate);
}

/// An in-process server and the client's connections to it.
class Harness {
 public:
  Harness() = default;
  ~Harness() { stop(); }
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  bool start(std::string* error) {
    stop();
    server_ = std::make_unique<serve::Server>(serve::ServerOptions{});
    if (!server_->start(error)) return false;
    conns_.resize(std::min(4u, nproc()));
    for (Conn& c : conns_) {
      if (!dial(server_->port(), &c, error)) return false;
    }
    return true;
  }

  /// Closes the connections and drains the server.
  void stop() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
    conns_.clear();
    if (server_ != nullptr) server_->drain();
    server_.reset();
  }

  std::vector<Conn>& conns() { return conns_; }
  std::size_t shards() const { return server_->shards(); }

 private:
  std::unique_ptr<serve::Server> server_;
  std::vector<Conn> conns_;
};

}  // namespace

/// The workload. With `serve_only` (a traced run of another workload
/// measuring the serve layer for `seconds`), only the serve-, io- and
/// loadgen-side metrics are reported.
int run_serve(const Options& options, double seconds, bool serve_only,
              Report& report, Tally& tally) {
  Tracer off(false);
  Tracer on(options.trace);
  Setup setup;
  Harness harness;
  std::vector<double> setup_s;
  std::string error;
  for (int k = 0; k < (options.trace ? 1 : kSetupRepeats); ++k) {
    harness.stop();
    const std::int64_t t0 = now_ns();
    if (!set_up(options, kStreamLength, on, &setup, &error) ||
        !harness.start(&error)) {
      std::fprintf(stderr, "serve_mixed: set-up failed: %s\n", error.c_str());
      return 1;
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  std::printf("serve_mixed: %zu requests, %zu references, %zu shards, "
              "%zu connections\n",
              setup.sends.size(), setup.refs.size(), harness.shards(),
              harness.conns().size());

  Client client(setup, tally);
  bool first = true;
  // One slice on a fresh server (the set-up's for the first slice).
  auto slice = [&](double rate, std::size_t count, Tracer& tracer,
                   LayerStats* layer,
                   std::optional<io::ServerStatsWire>* stats) {
    if (!first && !harness.start(&error)) {
      tally.fail("server restart failed: " + error);
      return StepOutcome{};
    }
    first = false;
    StepOutcome out =
        client.run(harness.conns(), rate, count, tracer, layer);
    if (stats != nullptr) *stats = fetch_stats(harness.conns()[0]);
    harness.stop();
    return out;
  };
  auto append = [](StepOutcome& into, const StepOutcome& from) {
    auto cat = [](std::vector<double>& a, const std::vector<double>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    cat(into.all_ms, from.all_ms);
    cat(into.short_ms, from.short_ms);
    cat(into.late_ms, from.late_ms);
    cat(into.overhead_ms, from.overhead_ms);
    into.backlog_max = std::max(into.backlog_max, from.backlog_max);
    into.verified += from.verified;
  };

  if (options.trace) {
    // Untraced and traced low-rate slices take turns on the same inputs.
    StepOutcome plain, traced;
    LayerStats layer;
    std::optional<io::ServerStatsWire> stats;
    const double slice_s = static_cast<double>(kLoSlice) / kLoRate;
    const long rounds = std::max(1L, std::lround(seconds / (2 * slice_s)));
    for (long r = 0; r < rounds; ++r) {
      append(plain, slice(kLoRate, kLoSlice, off, nullptr, nullptr));
      append(traced, slice(kLoRate, kLoSlice, on, &layer,
                           r + 1 == rounds ? &stats : nullptr));
    }
    if (!serve_only) {
      const double plain_ms = mean(plain.all_ms);
      const double traced_ms = mean(traced.all_ms);
      report.add("trace.overhead_ms", traced_ms - plain_ms, "ms",
                 "mean traced minus untraced request, from due time");
      report.add("trace.overhead_frac", (traced_ms - plain_ms) / plain_ms,
                 "ratio");
      report_layer_stats(layer.snapshot(), report);
      report_self_time(on, report);
      run_layer_probes(setup.sample, on, report);
    }
    // The client's own codec calls replace the probe figures.
    report.add("io.encode_us.request", mean(setup.encode_us), "us",
               "client request_frame, n=" +
                   std::to_string(setup.encode_us.size()));
    report.add("io.decode_us.result", mean(client.decode_us()), "us",
               "client result decode, n=" +
                   std::to_string(client.decode_us().size()));
    report.add("serve.frame_bytes.request", mean(setup.frame_bytes), "bytes");
    report.add("serve.frame_bytes.result", mean(client.result_bytes()),
               "bytes");
    std::vector<double> overhead = traced.overhead_ms;
    report.add("serve.overhead_ms.p50", percentile(overhead, 50.0));
    report.add("serve.overhead_ms.p99", percentile(overhead, 99.0));
    std::vector<double> late = traced.late_ms;
    report.add("loadgen.late_ms.p99", percentile(late, 99.0));
    report.add("loadgen.backlog_max", static_cast<double>(traced.backlog_max),
               "count");
    if (stats.has_value() && !stats->shards.empty()) {
      double max_req = 0.0;
      double sum_req = 0.0;
      for (const io::ShardStatsWire& sh : stats->shards) {
        max_req = std::max(max_req, static_cast<double>(sh.requests));
        sum_req += static_cast<double>(sh.requests);
      }
      const double shards = static_cast<double>(stats->shards.size());
      report.add("serve.shard_imbalance", max_req / (sum_req / shards),
                 "ratio", "max / mean shard requests");
    }
    if (!serve_only) {
      std::printf("trace %s\n", write_trace(options, on).c_str());
    }
    return 0;
  }

  report.add("setup_s", median(setup_s), "s",
             "median of " + std::to_string(setup_s.size()) + " set-ups");
  StepOutcome lo, hi;
  std::vector<double> hi_rates;
  const double round_s = static_cast<double>(kLoSlice) / kLoRate +
                         static_cast<double>(kHiSlice) / kHiRate;
  const long rounds = std::max(1L, std::lround(0.6 * seconds / round_s));
  for (long r = 0; r < rounds; ++r) {
    append(lo, slice(kLoRate, kLoSlice, off, nullptr, nullptr));
    const StepOutcome h = slice(kHiRate, kHiSlice, off, nullptr, nullptr);
    if (h.span_s > 0.0) {
      hi_rates.push_back(static_cast<double>(h.verified) / h.span_s);
    }
    append(hi, h);
  }
  std::vector<double> late = lo.late_ms;
  std::printf("low rate: %zu verified, late p99 %.3f ms; high rate: %zu "
              "verified\n",
              lo.verified, percentile(late, 99.0).value, hi.verified);
  report.add("p50_ms", windowed_percentile(lo.all_ms, 50.0, kLoSlice));
  report.add("p99_ms", windowed_percentile(lo.all_ms, 99.0, kLoSlice));
  report.add("p99_ms.hi", windowed_percentile(hi.all_ms, 99.0, kHiSlice));
  report.add("p99_ms.short", windowed_percentile(hi.short_ms, 99.0));
  report.add("solves_per_s", median(hi_rates), "1/s",
             "verified answers per second at the high rate, median of " +
                 std::to_string(hi_rates.size()) + " slices");

  std::vector<StepOutcome> ladder;
  std::vector<double> ladder_p99;
  for (double rate : kLadder) {
    auto failed = [&](std::size_t back) {
      const std::size_t i = ladder.size() - back;
      return ladder_p99[i] > kLimitMs || ladder[i].backlog_grew;
    };
    if (ladder.size() >= 2 && failed(1) && failed(2)) {
      break;  // two failures in a row: past saturation, not a noisy step
    }
    const auto count = std::min<std::size_t>(
        kStreamLength,
        static_cast<std::size_t>(std::llround(rate * kLadderStepS)));
    StepOutcome out = slice(rate, count, off, nullptr, nullptr);
    std::vector<double> all = out.all_ms;
    const Percentile p = percentile(all, 99.0);
    std::printf("ladder rate=%.0f/s sent=%zu verified=%zu p99=%.3f ms (p%g) "
                "backlog_max=%zu grew=%d completion=%.0f/s\n",
                rate, count, out.verified, p.value, p.q, out.backlog_max,
                out.backlog_grew ? 1 : 0, completion_rate(out));
    ladder_p99.push_back(p.value);
    ladder.push_back(std::move(out));
  }
  report.add("max_rate_rps", max_rate(ladder, ladder_p99), "1/s",
             "p99 <= 50 ms and no growing backlog");
  return 0;
}

int run_serve_mixed(const Options& options, Report& report, Tally& tally) {
  return run_serve(options, options.seconds, false, report, tally);
}

int measure_serve_layer(const Options& options, double seconds,
                        Report& report, Tally& tally) {
  Options traced = options;
  traced.trace = true;
  return run_serve(traced, seconds, true, report, tally);
}

}  // namespace perfbench
