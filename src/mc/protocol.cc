/**
 * @file
 * Text-protocol implementation.
 */

#include "mc/protocol.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <vector>

#include "mc/ctx.h"
#include "obs/metrics.h"
#include "obs/tail.h"

namespace tmemc::mc
{

namespace
{

/** Split the command line (up to \r\n) into whitespace-separated
 *  tokens; returns the offset just past the line terminator. */
std::size_t
tokenizeLine(const std::string &req, std::vector<std::string> &tokens)
{
    std::size_t eol = req.find("\r\n");
    if (eol == std::string::npos)
        eol = req.size();
    std::size_t i = 0;
    while (i < eol) {
        while (i < eol &&
               std::isspace(static_cast<unsigned char>(req[i])))
            ++i;
        std::size_t j = i;
        while (j < eol &&
               !std::isspace(static_cast<unsigned char>(req[j])))
            ++j;
        if (j > i)
            tokens.emplace_back(req.substr(i, j - i));
        i = j;
    }
    return eol + 2 <= req.size() ? eol + 2 : req.size();
}

std::string
storeReply(OpStatus st)
{
    switch (st) {
      case OpStatus::Ok:
        return "STORED\r\n";
      case OpStatus::NotStored:
        return "NOT_STORED\r\n";
      case OpStatus::Exists:
        return "EXISTS\r\n";
      case OpStatus::Miss:
        return "NOT_FOUND\r\n";
      case OpStatus::OutOfMemory:
        return "SERVER_ERROR out of memory storing object\r\n";
      case OpStatus::BadValue:
        return "CLIENT_ERROR cannot increment or decrement "
               "non-numeric value\r\n";
    }
    return "SERVER_ERROR\r\n";
}

} // namespace

CopySpace::CopySpace(std::size_t nkeys)
{
    if (nkeys > 1) {
        own_ = std::make_unique_for_overwrite<char[]>(nkeys * kMaxValueCopy);
        base_ = own_.get();
        return;
    }
    thread_local const std::unique_ptr<char[]> retained =
        std::make_unique_for_overwrite<char[]>(kMaxValueCopy);
    base_ = retained.get();
}

FrameResult
protocolTryFrame(const char *data, std::size_t len)
{
    FrameResult r;
    const char *eol = static_cast<const char *>(
        std::memchr(data, '\n', std::min(len, kMaxCommandLine + 1)));
    if (eol == nullptr) {
        if (len > kMaxCommandLine) {
            r.status = FrameStatus::Error;
            r.error = "CLIENT_ERROR line too long\r\n";
            return r;
        }
        return r;  // NeedMore.
    }
    const std::size_t line_len =
        static_cast<std::size_t>(eol - data) + 1;
    if (line_len > kMaxCommandLine) {
        r.status = FrameStatus::Error;
        r.error = "CLIENT_ERROR line too long\r\n";
        return r;
    }

    // Storage commands carry <bytes> of data after the line. Token 4
    // (or token 4 of 6 for cas) is the byte count in all of them:
    //   set|add|replace|cas|append|prepend <key> <flags> <exp> <bytes> ...
    const char *p = data;
    const char *line_end = data + line_len;
    auto next_token = [&](const char *&tok, std::size_t &tok_len) {
        while (p < line_end &&
               std::isspace(static_cast<unsigned char>(*p)))
            ++p;
        tok = p;
        while (p < line_end &&
               !std::isspace(static_cast<unsigned char>(*p)))
            ++p;
        tok_len = static_cast<std::size_t>(p - tok);
        return tok_len > 0;
    };
    const char *cmd;
    std::size_t cmd_len;
    if (!next_token(cmd, cmd_len)) {
        // Bare newline: a one-line (empty) request; execute() will
        // answer ERROR.
        r.status = FrameStatus::Ready;
        r.frameLen = line_len;
        return r;
    }
    const std::string_view c(cmd, cmd_len);
    const bool storage = c == "set" || c == "add" || c == "replace" ||
                         c == "cas" || c == "append" || c == "prepend";
    if (!storage) {
        r.status = FrameStatus::Ready;
        r.frameLen = line_len;
        return r;
    }

    const char *tok = nullptr;
    std::size_t tok_len = 0;
    for (int i = 0; i < 4; ++i) {
        if (!next_token(tok, tok_len)) {
            // Malformed storage line (missing <bytes>); frame it as
            // the line alone so execute() can reply ERROR.
            r.status = FrameStatus::Ready;
            r.frameLen = line_len;
            return r;
        }
    }
    char numbuf[32];
    const std::size_t n = std::min(tok_len, sizeof(numbuf) - 1);
    std::memcpy(numbuf, tok, n);
    numbuf[n] = '\0';
    char *end = nullptr;
    const unsigned long long bytes = std::strtoull(numbuf, &end, 10);
    if (end == numbuf || bytes > kMaxBodyBytes) {
        r.status = FrameStatus::Error;
        r.error = "SERVER_ERROR object too large for cache\r\n";
        return r;
    }
    const std::size_t want = line_len + bytes + 2;  // Data + CRLF.
    if (len < want)
        return r;  // NeedMore.
    r.status = FrameStatus::Ready;
    r.frameLen = want;
    return r;
}

std::string
protocolExecute(CacheIface &cache, std::uint32_t worker,
                const std::string &request)
{
    std::vector<std::string> tok;
    const std::size_t body_off = tokenizeLine(request, tok);
    if (tok.empty())
        return "ERROR\r\n";
    const std::string &cmd = tok[0];

    if (cmd == "get" || cmd == "gets") {
        if (tok.size() < 2)
            return "ERROR\r\n";
        // Multi-key get: one batched lookup so a sharded cache visits
        // each touched shard once, not once per key.
        const std::size_t nkeys = tok.size() - 1;
        const CopySpace space(nkeys);
        std::vector<CacheIface::MultiGetReq> reqs(nkeys);
        for (std::size_t i = 0; i < nkeys; ++i) {
            reqs[i].key = tok[i + 1].data();
            reqs[i].nkey = tok[i + 1].size();
            reqs[i].out = space.slot(i);
            reqs[i].outCap = kMaxValueCopy;
        }
        cache.getMulti(worker, reqs.data(), reqs.size());
        std::string reply;
        for (std::size_t i = 0; i < nkeys; ++i) {
            const auto &r = reqs[i].result;
            if (r.status != OpStatus::Ok)
                continue;
            char header[256];
            int n;
            if (cmd == "gets") {
                n = std::snprintf(
                    header, sizeof(header), "VALUE %s 0 %zu %llu\r\n",
                    tok[i + 1].c_str(), r.vlen,
                    static_cast<unsigned long long>(r.casId));
            } else {
                n = std::snprintf(header, sizeof(header),
                                  "VALUE %s 0 %zu\r\n", tok[i + 1].c_str(),
                                  r.vlen);
            }
            reply.append(header, static_cast<std::size_t>(n));
            reply.append(space.slot(i), std::min(r.vlen, kMaxValueCopy));
            reply.append("\r\n");
        }
        reply.append("END\r\n");
        return reply;
    }

    if (cmd == "set" || cmd == "add" || cmd == "replace" || cmd == "cas") {
        const bool is_cas = cmd == "cas";
        const std::size_t need = is_cas ? 6 : 5;
        if (tok.size() < need)
            return "ERROR\r\n";
        const std::string &key = tok[1];
        const long exptime = std::strtol(tok[3].c_str(), nullptr, 10);
        const std::size_t bytes =
            std::strtoull(tok[4].c_str(), nullptr, 10);
        const std::uint64_t cas =
            is_cas ? std::strtoull(tok[5].c_str(), nullptr, 10) : 0;
        if (body_off + bytes > request.size())
            return "CLIENT_ERROR bad data chunk\r\n";
        StoreMode mode = StoreMode::Set;
        if (cmd == "add")
            mode = StoreMode::Add;
        else if (cmd == "replace")
            mode = StoreMode::Replace;
        else if (is_cas)
            mode = StoreMode::Cas;
        const auto st = cache.store(worker, key.data(), key.size(),
                                    request.data() + body_off, bytes,
                                    mode, cas, std::max(exptime, 0L));
        return storeReply(st);
    }

    if (cmd == "append" || cmd == "prepend") {
        if (tok.size() < 5)
            return "ERROR\r\n";
        const std::string &key = tok[1];
        const std::size_t bytes =
            std::strtoull(tok[4].c_str(), nullptr, 10);
        if (body_off + bytes > request.size())
            return "CLIENT_ERROR bad data chunk\r\n";
        const auto st =
            cache.concat(worker, key.data(), key.size(),
                         request.data() + body_off, bytes,
                         cmd == "append");
        return storeReply(st);
    }

    if (cmd == "delete") {
        if (tok.size() < 2)
            return "ERROR\r\n";
        const auto st = cache.del(worker, tok[1].data(), tok[1].size());
        return st == OpStatus::Ok ? "DELETED\r\n" : "NOT_FOUND\r\n";
    }

    if (cmd == "incr" || cmd == "decr") {
        if (tok.size() < 3)
            return "ERROR\r\n";
        const std::uint64_t delta =
            std::strtoull(tok[2].c_str(), nullptr, 10);
        std::uint64_t value = 0;
        const auto st = cache.arith(worker, tok[1].data(), tok[1].size(),
                                    delta, cmd == "incr", value);
        if (st != OpStatus::Ok)
            return "NOT_FOUND\r\n";
        char buf[32];
        const int n = std::snprintf(buf, sizeof(buf), "%llu\r\n",
                                    static_cast<unsigned long long>(value));
        return std::string(buf, static_cast<std::size_t>(n));
    }

    if (cmd == "touch") {
        if (tok.size() < 3)
            return "ERROR\r\n";
        const long exptime = std::strtol(tok[2].c_str(), nullptr, 10);
        const auto st =
            cache.touch(worker, tok[1].data(), tok[1].size(), exptime);
        return st == OpStatus::Ok ? "TOUCHED\r\n" : "NOT_FOUND\r\n";
    }

    if (cmd == "stats") {
        // memcached-style sub-stats: `stats latency` and `stats tm`
        // render the process-wide metrics snapshot (obs/metrics.h);
        // unknown arguments fall through to the plain cache stats, as
        // memcached replies to unknown subcommands with its default.
        if (tok.size() >= 2 && tok[1] == "latency") {
            return obs::MetricsRegistry::get().snapshot()
                       .asciiLatencyRows() +
                   "END\r\n";
        }
        if (tok.size() >= 2 && tok[1] == "tm") {
            return obs::MetricsRegistry::get().snapshot().asciiTmRows() +
                   "END\r\n";
        }
        if (tok.size() >= 2 && tok[1] == "tail") {
            // The tail tracer's merged reservoir: the K slowest
            // requests with their span chains (obs/tail.h). Arm with
            // tmemc_server --tail; disarmed it reports tail_armed 0.
            return obs::tail::tailAsciiRows() + "END\r\n";
        }
        if (tok.size() >= 2 && tok[1] == "cluster") {
            // Cluster-client counters (net/cluster.h): populated when
            // a net::Cluster shares this process, empty otherwise.
            return obs::MetricsRegistry::get().snapshot()
                       .asciiClusterRows() +
                   "END\r\n";
        }
        std::vector<char> buf(16384);
        const std::size_t n =
            cache.statsText(worker, buf.data(), buf.size());
        return std::string(buf.data(), n) + "END\r\n";
    }

    if (cmd == "flush_all") {
        cache.flushAll(worker);
        return "OK\r\n";
    }

    if (cmd == "version") {
        return std::string("VERSION ") + worklistVersion() + "\r\n";
    }

    return "ERROR\r\n";
}

} // namespace tmemc::mc
