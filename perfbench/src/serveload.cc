#include "serveload.hh"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "fec/frame.hh"
#include "serve/client.hh"
#include "serve/net.hh"
#include "serve/server.hh"
#include "support/json.hh"

namespace pb
{

using namespace m4ps;

SessionRecord
runSession(const std::string &endpoint, const std::string &spec)
{
    SessionRecord r;
    r.start = nowSec();
    std::string err;
    const int fd = serve::connectTo(endpoint, &err);
    r.connected = nowSec();
    if (fd < 0) {
        r.error = "connect: " + err;
        r.end = nowSec();
        return r;
    }
    serve::Request req;
    req.spec = spec;
    const std::vector<uint8_t> wire = serve::encodeRequest(req);
    if (!serve::sendAll(fd, wire.data(), wire.size(), 1000,
                        [] { return true; })) {
        r.error = "request write failed";
        serve::shutdownAndClose(fd);
        r.end = nowSec();
        return r;
    }

    std::vector<uint8_t> buf;
    std::vector<uint8_t> tmp(64 * 1024);
    uint32_t nextSeq = 0;
    const double giveUp = r.start + 60;
    while (!r.gotFinal && r.error.empty() && nowSec() < giveUp) {
        const long n = serve::recvSome(fd, tmp.data(), tmp.size(), 200);
        if (n == -1)
            continue;
        if (n <= 0) {
            r.error = n == 0 ? "closed before STATUS" : "recv error";
            break;
        }
        const double at = nowSec();
        buf.insert(buf.end(), tmp.begin(), tmp.begin() + n);
        size_t off = 0;
        while (!r.gotFinal) {
            serve::MessageHeader h;
            const serve::ParseResult pr = serve::parseMessageHeader(
                buf.data() + off, buf.size() - off, &h);
            if (pr == serve::ParseResult::Bad) {
                r.error = "malformed message";
                break;
            }
            if (pr == serve::ParseResult::NeedMore ||
                buf.size() - off < serve::kMessageHeaderSize + h.payloadLen)
                break;
            const uint8_t *p = buf.data() + off + serve::kMessageHeaderSize;
            if (h.type == serve::MsgType::Data) {
                if (r.packets == 0)
                    r.firstData = at;
                if (r.dataTimes.empty() || r.dataTimes.back() != at)
                    r.dataTimes.push_back(at);
                if (h.seq != nextSeq)
                    ++r.seqGaps;
                nextSeq = h.seq + 1;
                ++r.packets;
                if (h.flags & serve::kFlagFecFramed) {
                    const fec::RecoverResult rec = fec::recover(
                        std::vector<uint8_t>(p, p + h.payloadLen));
                    r.stream.insert(r.stream.end(), rec.stream.begin(),
                                    rec.stream.end());
                } else {
                    r.stream.insert(r.stream.end(), p, p + h.payloadLen);
                }
            } else if (h.type == serve::MsgType::Status) {
                r.gotFinal = true;
                r.status = h.status;
                r.statusSeq = h.seq;
                r.statusJson.assign(p, p + h.payloadLen);
                r.end = at;
            }
            off += serve::kMessageHeaderSize + h.payloadLen;
        }
        buf.erase(buf.begin(), buf.begin() + off);
    }
    if (!r.gotFinal && r.error.empty())
        r.error = "no STATUS within 60 s";
    serve::shutdownAndClose(fd);
    if (!r.gotFinal)
        r.end = nowSec();
    return r;
}

std::vector<SessionRecord>
runSchedule(const std::string &endpoint,
            const std::vector<std::string> &specs,
            const std::vector<double> &dueOffsets, double t0)
{
    std::vector<SessionRecord> out(specs.size());
    std::atomic<size_t> next{0};
    auto client = [&] {
        for (;;) {
            const size_t i = next.fetch_add(1);
            if (i >= specs.size())
                return;
            const double due = t0 + dueOffsets[i];
            sleepUntil(due);
            out[i] = runSession(endpoint, specs[i]);
            out[i].due = due;
        }
    };
    std::vector<std::thread> pool;
    for (int t = 0; t < clientThreads(); ++t)
        pool.emplace_back(client);
    for (auto &t : pool)
        t.join();
    return out;
}

long
statusField(const SessionRecord &s, const char *key)
{
    try {
        const support::JsonValue v = support::parseJson(s.statusJson);
        return static_cast<long>(v.numberOr(key, -1));
    } catch (const support::JsonError &) {
        return -1;
    }
}

void
checkSession(Result &r, const SessionRecord &s)
{
    r.check(s.error.empty(), "session transport: " + s.error);
    r.check(s.gotFinal && s.status == serve::Status::Ok,
            std::string("session ended ") +
                (s.gotFinal ? serve::statusName(s.status) : "without STATUS"));
    r.check(s.seqGaps == 0 && s.statusSeq == s.packets,
            "session sequence numbers are not dense");
}

void
addServeLayerMetrics(Result &r, const std::vector<SessionRecord> &sessions,
                     const std::string &statsJson)
{
    std::vector<double> connect, first, gaps, late;
    for (const SessionRecord &s : sessions) {
        connect.push_back((s.connected - s.start) * 1e3);
        first.push_back((s.firstData - s.due) * 1e3);
        late.push_back((s.start - s.due) * 1e3);
        for (size_t i = 1; i < s.dataTimes.size(); ++i)
            gaps.push_back((s.dataTimes[i] - s.dataTimes[i - 1]) * 1e3);
    }
    r.add("serve.connect_ms", median(connect), "ms");
    r.add("serve.first_packet_p50_ms", median(first), "ms");
    r.add("serve.inter_packet_p50_ms", median(gaps), "ms");
    r.add("serve.gen_late_p50_ms", median(late), "ms");
    r.add("serve.gen_late_max_ms", quantile(late, 1.0), "ms");

    double peak = -1, retarget = -1, admitted = -1, shed = -1;
    try {
        const support::JsonValue doc = support::parseJson(statsJson);
        if (const auto *q = doc.find("queue"))
            peak = q->numberOr("peak", -1);
        if (const auto *l = doc.find("lifetime"))
            retarget = l->numberOr("retarget_steps", -1);
        if (const auto *s = doc.find("sessions")) {
            admitted = s->numberOr("admitted", -1);
            shed = s->numberOr("shed_total", -1);
        }
    } catch (const support::JsonError &) {
    }
    r.beginOp();
    r.check(peak >= 0 && retarget >= 0 && admitted >= 0 && shed >= 0,
            "STATS reply lacks the queue/lifetime/sessions counters");
    r.add("serve.queue_peak_bytes", peak, "count");
    r.add("serve.retarget_steps", retarget, "count");
    r.add("serve.admitted", admitted, "count");
    r.add("serve.shed", shed, "count");
}

void
probeServe(Result &r, const std::string &spec, const std::string &dir)
{
    constexpr int kSessions = 6;
    serve::ServerConfig cfg;
    cfg.checkpointDir = dir;
    serve::Server server(cfg);
    server.start();
    std::vector<std::string> specs(kSessions, spec);
    std::vector<double> due;
    for (int i = 0; i < kSessions; ++i)
        due.push_back(i * 0.3);
    const std::vector<SessionRecord> recs =
        runSchedule(server.endpoint(), specs, due, nowSec() + 0.01);
    std::string err;
    const std::string stats = serve::queryServerStats(server.endpoint(), &err);
    server.stop();
    for (const SessionRecord &s : recs) {
        r.beginOp();
        checkSession(r, s);
    }
    addServeLayerMetrics(r, recs, stats);
}

int
clientThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return static_cast<int>(std::clamp(n, 1u, 4u));
}

} // namespace pb
