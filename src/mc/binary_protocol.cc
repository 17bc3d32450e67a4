/**
 * @file
 * Binary-protocol implementation.
 */

#include "mc/binary_protocol.h"

#include <algorithm>
#include <cstring>
#include <string_view>
#include <vector>

#include "mc/ctx.h"

namespace tmemc::mc
{

namespace
{

void
put16(std::uint8_t *p, std::uint16_t v)
{
    p[0] = static_cast<std::uint8_t>(v >> 8);
    p[1] = static_cast<std::uint8_t>(v);
}

void
put32(std::uint8_t *p, std::uint32_t v)
{
    p[0] = static_cast<std::uint8_t>(v >> 24);
    p[1] = static_cast<std::uint8_t>(v >> 16);
    p[2] = static_cast<std::uint8_t>(v >> 8);
    p[3] = static_cast<std::uint8_t>(v);
}

void
put64(std::uint8_t *p, std::uint64_t v)
{
    put32(p, static_cast<std::uint32_t>(v >> 32));
    put32(p + 4, static_cast<std::uint32_t>(v));
}

std::uint16_t
get16(const std::uint8_t *p)
{
    return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}

std::uint32_t
get32(const std::uint8_t *p)
{
    return (static_cast<std::uint32_t>(p[0]) << 24) |
           (static_cast<std::uint32_t>(p[1]) << 16) |
           (static_cast<std::uint32_t>(p[2]) << 8) |
           static_cast<std::uint32_t>(p[3]);
}

std::uint64_t
get64(const std::uint8_t *p)
{
    return (static_cast<std::uint64_t>(get32(p)) << 32) | get32(p + 4);
}

/** Build a response frame. */
std::string
binResponseFrame(BinOp op, BinStatus status, std::string_view key,
                 std::string_view extras, std::string_view value,
                 std::uint64_t cas, std::uint32_t opaque)
{
    BinHeader h;
    h.magic = static_cast<std::uint8_t>(BinMagic::Response);
    h.opcode = static_cast<std::uint8_t>(op);
    h.keyLength = static_cast<std::uint16_t>(key.size());
    h.extrasLength = static_cast<std::uint8_t>(extras.size());
    h.status = static_cast<std::uint16_t>(status);
    h.bodyLength = static_cast<std::uint32_t>(extras.size() + key.size() +
                                              value.size());
    h.cas = cas;
    h.opaque = opaque;
    std::string out(kBinHeaderSize, '\0');
    binEncodeHeader(h, reinterpret_cast<std::uint8_t *>(out.data()));
    out += extras;
    out += key;
    out += value;
    return out;
}

/** Response extras of a GET hit: the item flags, always 0 here. */
constexpr std::string_view kGetFlags("\0\0\0\0", 4);

BinStatus
statusFor(OpStatus st)
{
    switch (st) {
      case OpStatus::Ok:
        return BinStatus::Ok;
      case OpStatus::Miss:
        return BinStatus::KeyNotFound;
      case OpStatus::NotStored:
        return BinStatus::NotStored;
      case OpStatus::Exists:
        return BinStatus::KeyExists;
      case OpStatus::OutOfMemory:
        return BinStatus::OutOfMemory;
      case OpStatus::BadValue:
        return BinStatus::NonNumeric;
    }
    return BinStatus::UnknownCommand;
}

} // namespace

void
binEncodeHeader(const BinHeader &h, std::uint8_t *out)
{
    out[0] = h.magic;
    out[1] = h.opcode;
    put16(out + 2, h.keyLength);
    out[4] = h.extrasLength;
    out[5] = h.dataType;
    put16(out + 6, h.status);
    put32(out + 8, h.bodyLength);
    put32(out + 12, h.opaque);
    put64(out + 16, h.cas);
}

bool
binDecodeHeader(const std::uint8_t *in, BinHeader &h)
{
    h.magic = in[0];
    if (h.magic != static_cast<std::uint8_t>(BinMagic::Request) &&
        h.magic != static_cast<std::uint8_t>(BinMagic::Response))
        return false;
    h.opcode = in[1];
    h.keyLength = get16(in + 2);
    h.extrasLength = in[4];
    h.dataType = in[5];
    h.status = get16(in + 6);
    h.bodyLength = get32(in + 8);
    h.opaque = get32(in + 12);
    h.cas = get64(in + 16);
    return true;
}

std::string
binRequest(BinOp op, const std::string &key, const std::string &value,
           const std::string &extras, std::uint64_t cas,
           std::uint32_t opaque)
{
    BinHeader h;
    h.magic = static_cast<std::uint8_t>(BinMagic::Request);
    h.opcode = static_cast<std::uint8_t>(op);
    h.keyLength = static_cast<std::uint16_t>(key.size());
    h.extrasLength = static_cast<std::uint8_t>(extras.size());
    h.bodyLength = static_cast<std::uint32_t>(extras.size() + key.size() +
                                              value.size());
    h.cas = cas;
    h.opaque = opaque;
    std::string out(kBinHeaderSize, '\0');
    binEncodeHeader(h, reinterpret_cast<std::uint8_t *>(out.data()));
    out += extras;
    out += key;
    out += value;
    return out;
}

std::string
binSetRequest(const std::string &key, const std::string &value,
              std::uint32_t flags, std::uint32_t expiry, BinOp op,
              std::uint64_t cas)
{
    std::string extras(8, '\0');
    put32(reinterpret_cast<std::uint8_t *>(extras.data()), flags);
    put32(reinterpret_cast<std::uint8_t *>(extras.data()) + 4, expiry);
    return binRequest(op, key, value, extras, cas);
}

std::string
binArithRequest(BinOp op, const std::string &key, std::uint64_t delta)
{
    // Extras: delta(8) initial(8) expiry(4).
    std::string extras(20, '\0');
    put64(reinterpret_cast<std::uint8_t *>(extras.data()), delta);
    return binRequest(op, key, "", extras);
}

std::size_t
binParseResponse(const std::string &wire, BinResponse &out)
{
    if (wire.size() < kBinHeaderSize)
        return 0;
    BinHeader h;
    if (!binDecodeHeader(
            reinterpret_cast<const std::uint8_t *>(wire.data()), h))
        return 0;
    if (wire.size() < kBinHeaderSize + h.bodyLength)
        return 0;
    if (static_cast<std::uint32_t>(h.extrasLength) + h.keyLength >
        h.bodyLength)
        return 0;  // Lying length fields.
    out.status = static_cast<BinStatus>(h.status);
    out.opcode = static_cast<BinOp>(h.opcode);
    out.cas = h.cas;
    out.opaque = h.opaque;
    const char *body = wire.data() + kBinHeaderSize;
    out.extras.assign(body, h.extrasLength);
    out.key.assign(body + h.extrasLength, h.keyLength);
    out.value.assign(body + h.extrasLength + h.keyLength,
                     h.bodyLength - h.extrasLength - h.keyLength);
    return kBinHeaderSize + h.bodyLength;
}

FrameResult
binaryTryFrame(const std::uint8_t *data, std::size_t len)
{
    FrameResult r;
    if (len == 0)
        return r;  // NeedMore.
    if (data[0] != static_cast<std::uint8_t>(BinMagic::Request)) {
        r.status = FrameStatus::Error;
        r.error = "bad magic";
        return r;
    }
    if (len < kBinHeaderSize)
        return r;  // NeedMore.
    BinHeader h;
    binDecodeHeader(data, h);
    if (h.bodyLength > kBinMaxBodyBytes) {
        r.status = FrameStatus::Error;
        r.error = "body too large";
        return r;
    }
    if (h.keyLength > kBinMaxKeyBytes ||
        static_cast<std::uint32_t>(h.extrasLength) + h.keyLength >
            h.bodyLength) {
        r.status = FrameStatus::Error;
        r.error = "inconsistent lengths";
        return r;
    }
    const std::size_t want = kBinHeaderSize + h.bodyLength;
    if (len < want)
        return r;  // NeedMore.
    r.status = FrameStatus::Ready;
    r.frameLen = want;
    return r;
}

std::string
binaryExecute(CacheIface &cache, std::uint32_t worker,
              const std::string &request)
{
    if (request.size() < kBinHeaderSize)
        return "";
    BinHeader h;
    if (!binDecodeHeader(
            reinterpret_cast<const std::uint8_t *>(request.data()), h) ||
        h.magic != static_cast<std::uint8_t>(BinMagic::Request)) {
        return binResponseFrame(BinOp::Noop, BinStatus::UnknownCommand,
                                "", "", "", 0, 0);
    }
    if (request.size() < kBinHeaderSize + h.bodyLength)
        return "";
    if (static_cast<std::uint32_t>(h.extrasLength) + h.keyLength >
        h.bodyLength) {
        // Length fields lie; reject rather than index out of bounds.
        return binResponseFrame(static_cast<BinOp>(h.opcode),
                                BinStatus::InvalidArguments, "", "", "",
                                0, h.opaque);
    }

    const char *body = request.data() + kBinHeaderSize;
    const std::string_view extras(body, h.extrasLength);
    const std::string_view key(body + h.extrasLength, h.keyLength);
    const char *value = body + h.extrasLength + h.keyLength;
    const std::size_t value_len =
        h.bodyLength - h.extrasLength - h.keyLength;
    const auto op = static_cast<BinOp>(h.opcode);

    switch (op) {
      case BinOp::Get:
      case BinOp::GetK:
      case BinOp::GetQ:
      case BinOp::GetKQ: {
        // The quiet gets (GetQ/GetKQ) answer only on a hit: a miss
        // writes nothing, which is how clients pipeline a multi-get.
        const bool withKey = op == BinOp::GetK || op == BinOp::GetKQ;
        char *const slot = valueCopySlot();
        const auto r = cache.get(worker, key.data(), key.size(), slot,
                                 kMaxValueCopy);
        if (r.status != OpStatus::Ok) {
            if (op == BinOp::GetQ || op == BinOp::GetKQ)
                return "";
            return binResponseFrame(op, BinStatus::KeyNotFound,
                                    withKey ? key : "", "", "", 0,
                                    h.opaque);
        }
        return binResponseFrame(
            op, BinStatus::Ok, withKey ? key : "", kGetFlags,
            {slot, std::min(r.vlen, kMaxValueCopy)}, r.casId, h.opaque);
      }

      case BinOp::Set:
      case BinOp::Add:
      case BinOp::Replace: {
        if (h.extrasLength != 8 || key.empty()) {
            return binResponseFrame(op, BinStatus::InvalidArguments, "",
                                    "", "", 0, h.opaque);
        }
        StoreMode mode = StoreMode::Set;
        if (op == BinOp::Add)
            mode = StoreMode::Add;
        else if (op == BinOp::Replace)
            mode = StoreMode::Replace;
        if (h.cas != 0)
            mode = StoreMode::Cas;  // CAS rides on set, per protocol.
        // Extras: flags(4) expiry(4). The reply carries the item's new
        // CAS id, as memcached does, taken from the store itself.
        const std::uint32_t expiry = get32(
            reinterpret_cast<const std::uint8_t *>(extras.data()) + 4);
        std::uint64_t cas = 0;
        const auto st = cache.store(worker, key.data(), key.size(), value,
                                    value_len, mode, h.cas,
                                    static_cast<std::int64_t>(expiry),
                                    &cas);
        return binResponseFrame(op, statusFor(st), "", "", "", cas,
                                h.opaque);
      }

      case BinOp::Append:
      case BinOp::Prepend: {
        const auto st =
            cache.concat(worker, key.data(), key.size(), value,
                         value_len, op == BinOp::Append);
        return binResponseFrame(op, statusFor(st), "", "", "", 0,
                                h.opaque);
      }

      case BinOp::Delete: {
        const auto st = cache.del(worker, key.data(), key.size());
        return binResponseFrame(op, statusFor(st), "", "", "", 0,
                                h.opaque);
      }

      case BinOp::Increment:
      case BinOp::Decrement: {
        if (h.extrasLength != 20) {
            return binResponseFrame(op, BinStatus::InvalidArguments, "",
                                    "", "", 0, h.opaque);
        }
        const std::uint64_t delta = get64(
            reinterpret_cast<const std::uint8_t *>(extras.data()));
        std::uint64_t result = 0;
        const auto st =
            cache.arith(worker, key.data(), key.size(), delta,
                        op == BinOp::Increment, result);
        if (st != OpStatus::Ok) {
            return binResponseFrame(op, statusFor(st), "", "", "", 0,
                                    h.opaque);
        }
        std::string val(8, '\0');
        put64(reinterpret_cast<std::uint8_t *>(val.data()), result);
        return binResponseFrame(op, BinStatus::Ok, "", "", val, 0,
                                h.opaque);
      }

      case BinOp::Flush: {
        cache.flushAll(worker);
        return binResponseFrame(op, BinStatus::Ok, "", "", "", 0,
                                h.opaque);
      }

      case BinOp::Noop:
        return binResponseFrame(op, BinStatus::Ok, "", "", "", 0,
                                h.opaque);

      case BinOp::Version:
        return binResponseFrame(op, BinStatus::Ok, "", "",
                                worklistVersion(), 0, h.opaque);

      case BinOp::Touch: {
        if (h.extrasLength != 4) {
            return binResponseFrame(op, BinStatus::InvalidArguments, "",
                                    "", "", 0, h.opaque);
        }
        const std::uint32_t expiry = get32(
            reinterpret_cast<const std::uint8_t *>(extras.data()));
        const auto st = cache.touch(worker, key.data(), key.size(),
                                    static_cast<std::int64_t>(expiry));
        return binResponseFrame(op, statusFor(st), "", "", "", 0,
                                h.opaque);
      }

      case BinOp::Stat: {
        // One frame per stat row, terminated by an empty-key frame.
        std::vector<char> text(16384);
        const std::size_t n =
            cache.statsText(worker, text.data(), text.size());
        std::string out;
        std::size_t pos = 0;
        const std::string block(text.data(), n);
        while (pos < block.size()) {
            // Rows look like "STAT name value\r\n".
            const std::size_t eol = block.find("\r\n", pos);
            if (eol == std::string::npos)
                break;
            const std::string row = block.substr(pos, eol - pos);
            pos = eol + 2;
            const std::size_t sp1 = row.find(' ');
            const std::size_t sp2 = row.find(' ', sp1 + 1);
            if (sp1 == std::string::npos || sp2 == std::string::npos)
                continue;
            out += binResponseFrame(
                op, BinStatus::Ok, row.substr(sp1 + 1, sp2 - sp1 - 1),
                "", row.substr(sp2 + 1), 0, h.opaque);
        }
        out += binResponseFrame(op, BinStatus::Ok, "", "", "", 0,
                                h.opaque);
        return out;
      }
    }
    return binResponseFrame(op, BinStatus::UnknownCommand, "", "", "", 0,
                            h.opaque);
}

} // namespace tmemc::mc
