#include "serve/server.hh"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "codec/decoder.hh"
#include "memsim/address_space.hh"
#include "core/runner.hh"
#include "serve/net.hh"
#include "serve/protocol.hh"
#include "service/checkpoint.hh"
#include "support/obs/obs.hh"
#include "support/serialize.hh"

namespace m4ps::serve
{

namespace
{

int64_t
monoMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

fec::FecConfig
fecConfigOf(const service::JobSpec &spec)
{
    fec::FecConfig cfg;
    cfg.decision = spec.fecMode == "soft" ? fec::Decision::Soft
                                          : fec::Decision::Hard;
    if (!fec::parseRate(spec.fecRate, cfg.rate))
        throw service::ManifestError(
            "fec-rate must be 1/2, 2/3, or 3/4");
    cfg.interleaveDepth = spec.interleaveDepth;
    return cfg;
}

bool
readFile(const std::string &path, std::vector<uint8_t> &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    out.assign(std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
    return true;
}

} // namespace

/** One live session: connection, queue, threads, and its verdict. */
struct Server::Session
{
    uint64_t id = 0;
    int fd = -1;
    int64_t startMs = 0;
    std::unique_ptr<SessionQueue> queue;
    std::thread worker;
    std::thread writer;

    std::atomic<bool> done{false};
    /** Abort verdict as int(Status); < 0 = not aborted. */
    std::atomic<int> abortStatus{-1};
    std::atomic<bool> checkpointRequested{false};
    std::atomic<int64_t> deadlineAtMs{0};

    // Written by the worker thread, read after done.
    std::string jobClass;
    uint32_t nextSeq = 0;
    uint64_t packets = 0;
    uint64_t payloadBytes = 0;
    int retargetSteps = 0;
    int degradeLevel = 0;
    int checkpointFrame = -1;
    std::string checkpointFile;
    std::string errorText;
    int frames = 0;

    // Written by the writer thread only.
    SenderState sender;
};

Server::Server(const ServerConfig &cfg)
    : cfg_(cfg), budget_(cfg.globalQueueBytes),
      admission_(cfg.admission), ladder_(cfg.ladder),
      statsRing_(cfg.statsRingCapacity),
      latencyBuckets_(sessionLatencyBoundsMs().size() + 1, 0)
{
    stats_.globalQueueWatermark = cfg.globalQueueBytes;
    stats_.ladderOccupancyMs.assign(
        static_cast<size_t>(cfg.ladder.maxLevel) + 1, 0);
}

Server::~Server()
{
    stop();
}

void
Server::attachEvents(std::ostream *os)
{
    std::lock_guard<std::mutex> lock(logMu_);
    log_.attach(os);
}

void
Server::emitEvent(const service::JsonEvent &e)
{
    std::lock_guard<std::mutex> lock(logMu_);
    log_.emit(e);
}

void
Server::start()
{
    if (started_.exchange(true))
        return;
    listenFd_ = listenOn(cfg_.listen, 64);
    endpoint_ = boundEndpoint(listenFd_, cfg_.listen);
    // Baseline ring entry: until the ring fills, the stats window is
    // "since start", then it slides (serve/stats.hh).
    startMs_ = monoMs();
    lastSampleMs_ = startMs_;
    lastSample_ = currentSample(startMs_);
    statsRing_.push(lastSample_);
    emitEvent(service::JsonEvent("serve_start")
                  .str("endpoint", endpoint_)
                  .num("max_sessions", cfg_.admission.maxSessions)
                  .num("global_queue_bytes",
                       static_cast<int64_t>(cfg_.globalQueueBytes)));
    acceptThread_ = std::thread([this] { acceptLoop(); });
    tickThread_ = std::thread([this] { tickLoop(); });
}

void
Server::requestDrain()
{
    if (admission_.draining())
        return;
    admission_.beginDrain();
    drainStartMs_.store(monoMs());
    emitEvent(service::JsonEvent("drain_begin")
                  .num("active", admission_.active()));
}

void
Server::stop()
{
    if (!started_.load() || stopped_.exchange(true))
        return;
    requestDrain();

    // Every session's remaining lifetime is bounded (deadline, push
    // budget, drain checkpoint sweep), so this wait terminates; the
    // cap below is a backstop against a logic bug, not policy.
    const int64_t cap = monoMs() + cfg_.sessionDeadlineMs +
                        cfg_.drainTimeoutMs + 10000;
    for (;;) {
        {
            std::lock_guard<std::mutex> lock(sessionsMu_);
            if (sessions_.empty())
                break;
            if (monoMs() > cap) {
                for (auto &s : sessions_) {
                    if (s->abortStatus.load() < 0)
                        s->abortStatus.store(
                            static_cast<int>(Status::Canceled));
                    s->queue->closeAll();
                }
            }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }

    stopAccept_.store(true);
    if (acceptThread_.joinable())
        acceptThread_.join();
    if (listenFd_ >= 0) {
        shutdownAndClose(listenFd_);
        listenFd_ = -1;
        if (cfg_.listen.rfind("unix:", 0) == 0)
            ::unlink(cfg_.listen.substr(5).c_str());
    }
    stopTick_.store(true);
    if (tickThread_.joinable())
        tickThread_.join();

    {
        std::lock_guard<std::mutex> lock(statsMu_);
        ladder_.finish(monoMs());
        for (int l = 0; l <= cfg_.ladder.maxLevel; ++l)
            stats_.ladderOccupancyMs[static_cast<size_t>(l)] =
                ladder_.occupancyMs(l);
        stats_.globalQueuePeak = budget_.highWatermarkSeen();
    }
    emitEvent(service::JsonEvent("drain_done")
                  .num("completed",
                       static_cast<int64_t>(stats().completed))
                  .num("checkpointed",
                       static_cast<int64_t>(stats().checkpointed)));
    emitEvent(service::JsonEvent("serve_stop"));
}

ServerStats
Server::stats() const
{
    std::lock_guard<std::mutex> lock(statsMu_);
    ServerStats s = stats_;
    s.globalQueuePeak =
        std::max(s.globalQueuePeak, budget_.highWatermarkSeen());
    for (int l = 0; l <= cfg_.ladder.maxLevel; ++l)
        s.ladderOccupancyMs[static_cast<size_t>(l)] = std::max(
            s.ladderOccupancyMs[static_cast<size_t>(l)],
            ladder_.occupancyMs(l));
    return s;
}

int
Server::degradeLevel() const
{
    return ladderLevel_.load();
}

// ------------------------------------------------------------------
// Accept path
// ------------------------------------------------------------------

void
Server::shedConnection(int fd, Status st)
{
    // Reject-fast: one small structured status, then close.  The
    // whole point is that overload costs a header write, not a
    // session - so the send budget here is tiny and best-effort.
    service::JsonEvent body("session_status");
    body.str("status", statusName(st));
    const std::string json = body.line();
    MessageHeader h;
    h.type = MsgType::Status;
    h.status = st;
    h.payloadLen = static_cast<uint32_t>(json.size());
    const std::vector<uint8_t> msg = encodeMessage(
        h, reinterpret_cast<const uint8_t *>(json.data()), json.size());
    sendAll(fd, msg.data(), msg.size(), 100, [] { return false; });
    shutdownAndClose(fd);

    static obs::Counter &shedC = obs::counter("serve.sessions_shed");
    shedC.add();
    {
        std::lock_guard<std::mutex> lock(statsMu_);
        if (st == Status::Overloaded)
            ++stats_.shedOverloaded;
        else if (st == Status::Draining)
            ++stats_.shedDraining;
        else
            ++stats_.shedBreaker;
    }
    emitEvent(service::JsonEvent("session_shed")
                  .str("status", statusName(st)));
}

void
Server::handleStatsConnection(int fd)
{
    static obs::Counter &statsC = obs::counter("serve.stats_queries");
    // Consume the 12-byte STATS frame (validated), answer one Stats
    // message, close.  Best-effort with a small budget, like a shed:
    // a stats scrape must never cost the daemon a session slot or an
    // unbounded wait.
    uint8_t buf[kRequestHeaderSize];
    size_t got = 0;
    const int64_t deadline = monoMs() + 100;
    while (got < kRequestHeaderSize && monoMs() < deadline) {
        const long r =
            recvSome(fd, buf + got, kRequestHeaderSize - got, 20);
        if (r == 0 || r == -2) {
            shutdownAndClose(fd);
            return;
        }
        if (r > 0)
            got += static_cast<size_t>(r);
    }
    size_t consumed = 0;
    if (got < kRequestHeaderSize ||
        parseStatsRequest(buf, got, &consumed) != ParseResult::Ok) {
        shutdownAndClose(fd);
        return;
    }
    const std::string json = statsJson();
    MessageHeader h;
    h.type = MsgType::Stats;
    h.status = Status::Ok;
    const std::vector<uint8_t> msg = encodeMessage(
        h, reinterpret_cast<const uint8_t *>(json.data()),
        json.size());
    sendAll(fd, msg.data(), msg.size(), 100, [] { return false; });
    shutdownAndClose(fd);
    statsC.add();
}

void
Server::observeSessionLatency(double ms)
{
    const std::vector<double> &bounds = sessionLatencyBoundsMs();
    size_t i = 0;
    while (i < bounds.size() && ms > bounds[i])
        ++i;
    std::lock_guard<std::mutex> lock(latencyMu_);
    ++latencyBuckets_[i];
    ++latencyCount_;
    ++verdicts_;
}

StatsSample
Server::currentSample(int64_t nowMs) const
{
    StatsSample s;
    s.monoMs = nowMs;
    {
        std::lock_guard<std::mutex> lock(statsMu_);
        s.admitted = stats_.admitted;
        s.shed = stats_.shedTotal();
        s.completed = stats_.completed;
        s.payloadBytes = stats_.payloadBytes;
    }
    {
        std::lock_guard<std::mutex> lock(latencyMu_);
        s.verdicts = verdicts_;
        s.latencyCount = latencyCount_;
        s.latencyBuckets = latencyBuckets_;
    }
    return s;
}

std::string
Server::statsJson() const
{
    const int64_t now = monoMs();
    const std::vector<double> &bounds = sessionLatencyBoundsMs();

    ServiceSnapshot snap;
    snap.nowMs = now;
    snap.uptimeMs = now - startMs_;
    snap.traceId = obs::traceId();
    snap.endpoint = endpoint_;
    snap.draining = admission_.draining();
    snap.degradeLevel = ladderLevel_.load();
    snap.activeSessions = admission_.active();
    snap.maxSessions = cfg_.admission.maxSessions;
    snap.queueBytes = budget_.used();
    snap.queueWatermark = cfg_.globalQueueBytes;
    snap.queuePeak = budget_.highWatermarkSeen();
    {
        std::lock_guard<std::mutex> lock(statsMu_);
        snap.ladderMaxLevel = stats_.ladderMaxLevel;
        snap.admitted = stats_.admitted;
        snap.completed = stats_.completed;
        snap.checkpointed = stats_.checkpointed;
        snap.failed = stats_.failed;
        snap.canceled = stats_.canceled;
        snap.badRequests = stats_.badRequests;
        snap.idleTimeouts = stats_.idleTimeouts;
        snap.deadlineExceeded = stats_.deadlineExceeded;
        snap.slowReaders = stats_.slowReaders;
        snap.shedOverloaded = stats_.shedOverloaded;
        snap.shedDraining = stats_.shedDraining;
        snap.shedBreaker = stats_.shedBreaker;
        snap.packets = stats_.packets;
        snap.payloadBytes = stats_.payloadBytes;
        snap.retargetSteps = stats_.retargetSteps;
        snap.sloWindows = sloWindows_;
        snap.sloViolations = sloViolations_;
    }
    snap.sloP99TargetMs = cfg_.sloP99Ms;
    snap.fecBlocksCorrected =
        obs::counter("fec.blocks_corrected").value();
    snap.fecBlocksUncorrectable =
        obs::counter("fec.blocks_uncorrectable").value();

    const StatsSample cur = currentSample(now);
    snap.lifetimeP50Ms =
        obs::quantileFromBuckets(bounds, cur.latencyBuckets, 0.50);
    snap.lifetimeP99Ms =
        obs::quantileFromBuckets(bounds, cur.latencyBuckets, 0.99);

    StatsSample base = statsRing_.size() > 0 ? statsRing_.oldest()
                                             : StatsSample{};
    if (base.monoMs == 0)
        base.monoMs = startMs_;
    fillSnapshotWindow(&snap, base, cur, bounds);
    return renderServiceSnapshot(snap);
}

void
Server::spawnSession(int fd)
{
    static obs::Counter &admittedC =
        obs::counter("serve.sessions_admitted");
    admittedC.add();
    std::lock_guard<std::mutex> lock(sessionsMu_);
    auto s = std::make_unique<Session>();
    s->id = nextSessionId_++;
    s->fd = fd;
    s->startMs = monoMs();
    s->deadlineAtMs.store(s->startMs + cfg_.sessionDeadlineMs);
    s->queue = std::make_unique<SessionQueue>(
        cfg_.sessionQueueHighBytes, cfg_.sessionQueueLowBytes, budget_);
    Session &ref = *s;
    // The writer must be running (joinable) before the worker starts:
    // a short session's worker can reach its writer-join while this
    // thread is descheduled, and a default-constructed writer member
    // would let it skip the join and close the fd under the writer.
    ref.writer = std::thread([this, &ref] { sessionWriter(ref); });
    ref.worker = std::thread([this, &ref] { sessionWorker(ref); });
    {
        std::lock_guard<std::mutex> slock(statsMu_);
        ++stats_.admitted;
    }
    emitEvent(service::JsonEvent("session_admitted")
                  .num("session", static_cast<int64_t>(ref.id)));
    sessions_.push_back(std::move(s));
}

void
Server::acceptLoop()
{
    while (!stopAccept_.load()) {
        pollfd pfd{listenFd_, POLLIN, 0};
        const int r =
            ::poll(&pfd, 1, static_cast<int>(cfg_.tickMs));
        if (r <= 0)
            continue;
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        if (cfg_.sockSndbufBytes > 0)
            ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF,
                         &cfg_.sockSndbufBytes,
                         sizeof(cfg_.sockSndbufBytes));
        // STATS connections bypass the admission gate entirely: peek
        // the magic without consuming it (a session request's bytes
        // stay readable by its worker), answer the snapshot inline,
        // and close - so an operator can always ask a saturated or
        // draining daemon what is happening.  The peek budget is
        // tiny and bounded; a client silent past it is treated as a
        // normal session connection.
        {
            uint8_t magic[4];
            ssize_t pk = -1;
            const int64_t peekDeadline = monoMs() + cfg_.statsPeekMs;
            for (;;) {
                pk = ::recv(fd, magic, sizeof(magic),
                            MSG_PEEK | MSG_DONTWAIT);
                if (pk >= 4 || pk == 0)
                    break;
                if (monoMs() >= peekDeadline)
                    break;
                pollfd ppfd{fd, POLLIN, 0};
                ::poll(&ppfd, 1, 2);
            }
            if (pk >= 4 &&
                std::memcmp(magic, kStatsMagic, 4) == 0) {
                handleStatsConnection(fd);
                continue;
            }
        }
        const AdmitDecision d = admission_.tryAdmit(monoMs());
        if (!d.admitted) {
            shedConnection(fd, d.shedStatus);
            continue;
        }
        spawnSession(fd);
    }
}

// ------------------------------------------------------------------
// Watchdog / ladder tick
// ------------------------------------------------------------------

void
Server::reapDoneSessions()
{
    std::vector<std::unique_ptr<Session>> dead;
    {
        std::lock_guard<std::mutex> lock(sessionsMu_);
        for (auto it = sessions_.begin(); it != sessions_.end();) {
            if ((*it)->done.load()) {
                dead.push_back(std::move(*it));
                it = sessions_.erase(it);
            } else {
                ++it;
            }
        }
    }
    for (auto &s : dead) {
        if (s->worker.joinable())
            s->worker.join();
        if (s->writer.joinable())
            s->writer.join();
    }
}

void
Server::tickLoop()
{
    static obs::Gauge &activeG = obs::gauge("serve.active_sessions");
    static obs::Gauge &queueG = obs::gauge("serve.queue_bytes");
    static obs::Gauge &levelG = obs::gauge("serve.degrade_level");
    while (!stopTick_.load()) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(cfg_.tickMs));
        const int64_t now = monoMs();

        const bool drainGraceOver =
            admission_.draining() &&
            now - drainStartMs_.load() >= cfg_.drainTimeoutMs;
        {
            std::lock_guard<std::mutex> lock(sessionsMu_);
            for (auto &s : sessions_) {
                if (s->done.load())
                    continue;
                if (s->abortStatus.load() < 0 &&
                    now > s->deadlineAtMs.load())
                    s->abortStatus.store(
                        static_cast<int>(Status::DeadlineExceeded));
                if (drainGraceOver)
                    s->checkpointRequested.store(true);
            }
        }
        reapDoneSessions();

        const double queueLoad =
            cfg_.globalQueueBytes == 0
                ? 0.0
                : static_cast<double>(budget_.used()) /
                      static_cast<double>(cfg_.globalQueueBytes);
        const double load =
            std::max(admission_.sessionLoad(), queueLoad);
        if (cfg_.degrade) {
            int level = 0;
            {
                std::lock_guard<std::mutex> lock(statsMu_);
                level = ladder_.observe(load, now);
                stats_.ladderMaxLevel =
                    std::max(stats_.ladderMaxLevel, level);
            }
            const int prev = ladderLevel_.exchange(level);
            if (prev != level) {
                levelG.set(level);
                emitEvent(service::JsonEvent("degrade_level")
                              .num("level", level)
                              .num("from", prev)
                              .real("load", load));
            }
        }
        activeG.set(admission_.active());
        queueG.set(static_cast<int64_t>(budget_.used()));

        // Stats ring cadence: push a cumulative sample so STATS
        // queries can window their rates, and evaluate the p99 SLO
        // over the interval that just ended (only intervals that saw
        // verdicts count - an idle daemon cannot violate its SLO).
        if (now - lastSampleMs_ >= cfg_.statsIntervalMs) {
            StatsSample cur = currentSample(now);
            if (cfg_.sloP99Ms > 0 &&
                cur.latencyCount > lastSample_.latencyCount) {
                std::vector<uint64_t> deltas(
                    cur.latencyBuckets.size(), 0);
                for (size_t i = 0; i < deltas.size(); ++i) {
                    const uint64_t b =
                        i < lastSample_.latencyBuckets.size()
                            ? lastSample_.latencyBuckets[i]
                            : 0;
                    deltas[i] = cur.latencyBuckets[i] >= b
                                    ? cur.latencyBuckets[i] - b
                                    : 0;
                }
                const double p99 = obs::quantileFromBuckets(
                    sessionLatencyBoundsMs(), deltas, 0.99);
                bool violated = false;
                {
                    std::lock_guard<std::mutex> lock(statsMu_);
                    ++sloWindows_;
                    if (p99 > static_cast<double>(cfg_.sloP99Ms)) {
                        ++sloViolations_;
                        violated = true;
                    }
                }
                if (violated)
                    emitEvent(service::JsonEvent("slo_violation")
                                  .real("p99_ms", p99)
                                  .num("target_ms", cfg_.sloP99Ms)
                                  .num("window_ms",
                                       now - lastSample_.monoMs));
            }
            statsRing_.push(cur);
            lastSample_ = std::move(cur);
            lastSampleMs_ = now;
        }
    }
    reapDoneSessions();
}

// ------------------------------------------------------------------
// Writer thread: queue -> socket
// ------------------------------------------------------------------

void
Server::sessionWriter(Session &s)
{
    std::vector<uint8_t> msg;
    for (;;) {
        if (!s.queue->pop(&msg, 200)) {
            if (s.queue->finished())
                break;
            continue;
        }
        MessageHeader h;
        parseMessageHeader(msg.data(), msg.size(), &h);
        const int64_t stallStart = monoMs();
        const bool ok = sendAll(
            s.fd, msg.data(), msg.size(), cfg_.writeTimeoutMs,
            [this, &s, stallStart] {
                // Stall budget: a peer that stops reading cannot hold
                // the writer (and with it drain) hostage.
                return !s.queue->closed() &&
                       monoMs() - stallStart < cfg_.pushTimeoutMs;
            });
        if (!ok) {
            // Peer gone or stall budget blown: staged bytes can never
            // be delivered - release them and wake the producer.
            s.queue->closeAll();
            break;
        }
        if (h.type == MsgType::Data)
            s.sender.onSend(h.payloadLen, monoMs(),
                            static_cast<int64_t>(h.mediaTsMs));
    }
}

// ------------------------------------------------------------------
// Worker thread: request -> job -> staged messages
// ------------------------------------------------------------------

Status
Server::stageData(Session &s, const uint8_t *data, size_t n,
                  uint32_t mediaTsMs, const fec::FecConfig *fecCfg,
                  codec::Mpeg4Encoder *enc)
{
    static obs::Counter &packetsC = obs::counter("serve.packets");
    static obs::Counter &bytesC = obs::counter("serve.bytes");
    static obs::Counter &retargetC = obs::counter("serve.retargets");
    size_t off = 0;
    while (off < n) {
        const size_t chunk = std::min(cfg_.mtuBytes, n - off);
        std::vector<uint8_t> payload;
        if (fecCfg != nullptr)
            payload = fec::protect(
                std::vector<uint8_t>(data + off, data + off + chunk),
                *fecCfg);
        else
            payload.assign(data + off, data + off + chunk);

        MessageHeader h;
        h.type = MsgType::Data;
        h.status = Status::Ok;
        h.flags = fecCfg != nullptr ? kFlagFecFramed : 0;
        h.seq = s.nextSeq;
        h.mediaTsMs = mediaTsMs;
        h.payloadLen = static_cast<uint32_t>(payload.size());
        std::vector<uint8_t> msg =
            encodeMessage(h, payload.data(), payload.size());

        // Backpressure: a gated queue means the reader is slower than
        // the encoder.  Retarget the rate controller down (bounded
        // steps) so the stream shrinks instead of the queue growing.
        if (enc != nullptr && s.queue->aboveHighWater() &&
            s.retargetSteps < cfg_.maxRetargetSteps) {
            enc->scaleBitrate(cfg_.retargetFactor);
            ++s.retargetSteps;
            retargetC.add();
            emitEvent(service::JsonEvent("backpressure_retarget")
                          .num("session", static_cast<int64_t>(s.id))
                          .num("step", s.retargetSteps)
                          .real("factor", cfg_.retargetFactor));
        }

        if (!s.queue->push(std::move(msg), cfg_.pushTimeoutMs)) {
            const int abort = s.abortStatus.load();
            if (abort >= 0)
                return static_cast<Status>(abort);
            return s.queue->closed() ? Status::Canceled
                                     : Status::SlowReader;
        }
        ++s.nextSeq;
        ++s.packets;
        s.payloadBytes += chunk;
        packetsC.add();
        bytesC.add(chunk);
        off += chunk;
    }
    return Status::Ok;
}

Status
Server::runEncodeSession(Session &s, service::JobSpec &spec)
{
    const core::Workload &w = spec.workload;
    memsim::SimContext ctx; // untraced: serving produces output,
                            // not memory measurements
    core::SceneFeeder feeder(ctx, w);
    codec::Mpeg4Encoder enc(ctx, w.encoderConfig());

    fec::FecConfig fcfg;
    const bool fecOn = spec.fecEnabled();
    if (fecOn)
        fcfg = fecConfigOf(spec);
    const fec::FecConfig *fp = fecOn ? &fcfg : nullptr;

    const double fps = std::max(w.frameRate, 1.0);
    size_t sent = 0;
    for (int t = 0; t < w.frames; ++t) {
        const int abort = s.abortStatus.load();
        if (abort >= 0)
            return static_cast<Status>(abort);
        if (s.checkpointRequested.load()) {
            // Drain grace expired: persist progress so the work is
            // resumable, then yield the slot.
            service::Checkpoint c;
            c.configHash = spec.configHash();
            c.nextFrame = t;
            support::StateWriter sw;
            enc.saveState(sw);
            c.state = sw.take();
            s.checkpointFile = cfg_.checkpointDir + "/serve-" +
                               std::to_string(s.id) + ".ckpt";
            service::saveCheckpoint(s.checkpointFile, c);
            s.checkpointFrame = t;
            return Status::Checkpointed;
        }
        enc.encodeFrame(feeder.inputs(t), t);
        s.frames = t + 1;
        const auto mediaMs =
            static_cast<uint32_t>(t * 1000.0 / fps);
        const std::vector<uint8_t> &prefix = enc.streamPrefix();
        const Status st = stageData(s, prefix.data() + sent,
                                    prefix.size() - sent, mediaMs, fp,
                                    &enc);
        if (st != Status::Ok)
            return st;
        sent = prefix.size();
    }

    const std::vector<uint8_t> full = enc.finish();
    const auto tailMs =
        static_cast<uint32_t>(w.frames * 1000.0 / fps);
    const Status st = stageData(s, full.data() + sent,
                                full.size() - sent, tailMs, fp, &enc);
    if (st != Status::Ok)
        return st;

    if (spec.type == service::JobType::Transcode) {
        // Verify pass: the streamed bytes must decode.
        memsim::SimContext dctx;
        codec::Mpeg4Decoder dec(dctx);
        const codec::DecodeStats ds = dec.decode(
            full, codec::Mpeg4Decoder::Sink(), spec.tolerant);
        if (ds.vops == 0) {
            s.errorText = "transcode verify decoded no VOPs";
            return Status::InternalError;
        }
    }
    return Status::Ok;
}

Status
Server::runDecodeSession(Session &s, service::JobSpec &spec)
{
    std::vector<uint8_t> stream;
    if (!readFile(spec.input, stream)) {
        s.errorText = "missing input '" + spec.input + "'";
        return Status::InternalError;
    }
    memsim::SimContext ctx;
    codec::Mpeg4Decoder dec(ctx);
    fec::FecStats fecStats;
    codec::DecodeStats ds;
    if (spec.fecEnabled()) {
        const fec::RecoverResult rec = fec::recover(stream);
        fecStats = rec.stats;
        ds = dec.decode(rec.stream, codec::Mpeg4Decoder::Sink(),
                        spec.tolerant);
    } else {
        ds = dec.decode(stream, codec::Mpeg4Decoder::Sink(),
                        spec.tolerant);
    }
    // The decode report travels as one DATA payload (never FEC
    // framed; framing applies to bitstream bytes).
    std::string report;
    report += "vops " + std::to_string(ds.vops) + "\n";
    report += "displayed " + std::to_string(ds.displayed) + "\n";
    report +=
        "corrupted_vops " + std::to_string(ds.corruptedVops) + "\n";
    report +=
        "header_errors " + std::to_string(ds.headerErrors) + "\n";
    report += "total_bits " + std::to_string(ds.totalBits) + "\n";
    if (spec.fecEnabled()) {
        report += "fec_blocks " + std::to_string(fecStats.blocks) +
                  "\n";
        report += "fec_blocks_corrected " +
                  std::to_string(fecStats.blocksCorrected) + "\n";
    }
    s.frames = ds.vops;
    return stageData(
        s, reinterpret_cast<const uint8_t *>(report.data()),
        report.size(), 0, nullptr, nullptr);
}

Status
Server::runSession(Session &s, service::JobSpec &spec)
{
    try {
        switch (spec.type) {
          case service::JobType::Encode:
          case service::JobType::Transcode:
            return runEncodeSession(s, spec);
          case service::JobType::Decode:
            return runDecodeSession(s, spec);
        }
        return Status::InternalError;
    } catch (const std::exception &e) {
        s.errorText = e.what();
        return Status::InternalError;
    }
}

void
Server::sessionWorker(Session &s)
{
    // Phase 1: read one framed request within the idle budget.
    Request req;
    Status verdict = Status::Ok;
    bool haveRequest = false;
    bool peerGone = false;
    {
        std::vector<uint8_t> buf;
        const int64_t idleDeadline = monoMs() + cfg_.idleTimeoutMs;
        uint8_t tmp[4096];
        while (monoMs() < idleDeadline) {
            const int abort = s.abortStatus.load();
            if (abort >= 0) {
                verdict = static_cast<Status>(abort);
                break;
            }
            const long r = recvSome(s.fd, tmp, sizeof(tmp), 100);
            if (r == 0 || r == -2) {
                peerGone = true;
                verdict = Status::Canceled;
                break;
            }
            if (r < 0)
                continue; // poll slice elapsed; re-check budgets
            buf.insert(buf.end(), tmp, tmp + r);
            size_t consumed = 0;
            const ParseResult pr =
                parseRequest(buf.data(), buf.size(), &req, &consumed);
            if (pr == ParseResult::Ok) {
                haveRequest = true;
                break;
            }
            if (pr == ParseResult::Bad) {
                verdict = Status::BadRequest;
                s.errorText = "malformed request frame";
                break;
            }
        }
        if (!haveRequest && verdict == Status::Ok) {
            verdict = Status::IdleTimeout;
            s.errorText = "no complete request within idle budget";
        }
    }

    // Phase 2: parse + shape the spec, pass the class gate.
    service::JobSpec spec;
    bool classed = false;
    bool isProbe = false;
    if (haveRequest) {
        try {
            spec = service::parseSpecLine(
                "serve-" + std::to_string(s.id), req.spec);
            if (spec.output.empty()) {
                // Streaming sessions have no output file; satisfy
                // validate() with a sentinel that is never written.
                spec.output = "serve://" + std::to_string(s.id);
            }
            spec.validate();
            s.degradeLevel =
                cfg_.degrade ? ladderLevel_.load() : 0;
            if (s.degradeLevel > 0)
                DegradationLadder::applyToSpec(spec, s.degradeLevel);
            s.jobClass = spec.effectiveClass();
            const AdmitDecision cd =
                admission_.checkClass(s.jobClass, monoMs());
            if (!cd.admitted) {
                verdict = Status::BreakerOpen;
            } else {
                classed = true;
                isProbe = cd.isProbe;
            }
        } catch (const service::ManifestError &e) {
            verdict = Status::BadRequest;
            s.errorText = e.what();
        }
    }

    // Phase 3: run the job.
    if (haveRequest && verdict == Status::Ok)
        verdict = runSession(s, spec);

    // Phase 4: bookkeeping - breaker verdict and stats.  It lands
    // before the terminal STATUS is queued, so a client that has
    // read its STATUS sees the session counted and its admission
    // slot and breaker verdict released.
    if (classed) {
        SessionEnd end = SessionEnd::NoVerdict;
        if (verdict == Status::Ok || verdict == Status::Checkpointed)
            end = SessionEnd::Success;
        else if (verdict == Status::InternalError)
            end = SessionEnd::PermanentFailure;
        admission_.release(s.jobClass, isProbe, end, monoMs());
    } else {
        admission_.releaseUnclassified();
    }
    {
        std::lock_guard<std::mutex> lock(statsMu_);
        switch (verdict) {
          case Status::Ok:               ++stats_.completed; break;
          case Status::Checkpointed:     ++stats_.checkpointed; break;
          case Status::InternalError:    ++stats_.failed; break;
          case Status::Canceled:         ++stats_.canceled; break;
          case Status::BadRequest:       ++stats_.badRequests; break;
          case Status::IdleTimeout:      ++stats_.idleTimeouts; break;
          case Status::DeadlineExceeded: ++stats_.deadlineExceeded;
                                         break;
          case Status::SlowReader:       ++stats_.slowReaders; break;
          case Status::BreakerOpen:      ++stats_.shedBreaker; break;
          default: break;
        }
        stats_.packets += s.packets;
        stats_.payloadBytes += s.payloadBytes;
        stats_.retargetSteps +=
            static_cast<uint64_t>(s.retargetSteps);
        if (s.retargetSteps > 0)
            ++stats_.retargetedSessions;
    }
    // Phase 5: terminal status (best-effort when the peer is gone).
    if (!peerGone && verdict != Status::Canceled) {
        service::JsonEvent body("session_status");
        body.str("status", statusName(verdict))
            .num("session", static_cast<int64_t>(s.id))
            .num("frames", s.frames)
            .num("packets", static_cast<int64_t>(s.packets))
            .num("payload_bytes",
                 static_cast<int64_t>(s.payloadBytes))
            .num("degrade_level", s.degradeLevel)
            .num("retarget_steps", s.retargetSteps)
            .num("checkpoint_frame", s.checkpointFrame);
        if (!s.checkpointFile.empty())
            body.str("checkpoint", s.checkpointFile);
        if (!s.errorText.empty())
            body.str("error", s.errorText);
        const std::string json = body.line();
        MessageHeader h;
        h.type = MsgType::Status;
        h.status = verdict;
        h.seq = s.nextSeq;
        h.payloadLen = static_cast<uint32_t>(json.size());
        s.queue->push(
            encodeMessage(
                h, reinterpret_cast<const uint8_t *>(json.data()),
                json.size()),
            1000);
    }
    s.queue->closeProducer();
    if (s.writer.joinable())
        s.writer.join();
    shutdownAndClose(s.fd);
    s.fd = -1;

    // Phase 6: latency and event, once the peer is closed.
    const int64_t now = monoMs();
    observeSessionLatency(static_cast<double>(now - s.startMs));
    static obs::Counter &doneC = obs::counter("serve.sessions_done");
    doneC.add();
    emitEvent(service::JsonEvent(verdict == Status::Checkpointed
                                     ? "session_checkpointed"
                                     : "session_done")
                  .num("session", static_cast<int64_t>(s.id))
                  .str("status", statusName(verdict))
                  .str("job_class", s.jobClass)
                  .num("frames", s.frames)
                  .num("packets", static_cast<int64_t>(s.packets))
                  .num("duration_ms", now - s.startMs)
                  .real("jitter_ms", s.sender.jitterMs));
    s.done.store(true);
}

} // namespace m4ps::serve
