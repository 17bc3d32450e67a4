/**
 * @file
 * memcached binary protocol, as exercised by the paper's workload
 * (memslap was run with --binary).
 *
 * Implements the frame layout of the memcached binary protocol
 * (magic/opcode/key-length/extras-length/status/body-length/opaque/
 * cas) for the opcodes the study needs: GET/GETK, SET/ADD/REPLACE,
 * DELETE, INCREMENT/DECREMENT, NOOP, VERSION, STAT, FLUSH.
 *
 * Multi-byte fields are network byte order, assembled byte by byte on
 * the private request buffer before any transaction runs, as in
 * memcached's conn parsing. (htons is one of the library calls the
 * paper had to make transaction-safe, Section 3.4; here no byte-order
 * conversion runs inside a transaction.)
 */

#ifndef TMEMC_MC_BINARY_PROTOCOL_H
#define TMEMC_MC_BINARY_PROTOCOL_H

#include <cstdint>
#include <string>

#include "mc/cache_iface.h"
#include "mc/protocol.h"

namespace tmemc::mc
{

/** Binary-protocol magic bytes. */
enum class BinMagic : std::uint8_t
{
    Request = 0x80,
    Response = 0x81,
};

/** Opcodes (memcached protocol_binary.h values). */
enum class BinOp : std::uint8_t
{
    Get = 0x00,
    Set = 0x01,
    Add = 0x02,
    Replace = 0x03,
    Delete = 0x04,
    Increment = 0x05,
    Decrement = 0x06,
    Flush = 0x08,
    GetQ = 0x09,
    Noop = 0x0a,
    Version = 0x0b,
    GetK = 0x0c,
    GetKQ = 0x0d,
    Append = 0x0e,
    Prepend = 0x0f,
    Stat = 0x10,
    Touch = 0x1c,
};

/** Response status codes. */
enum class BinStatus : std::uint16_t
{
    Ok = 0x0000,
    KeyNotFound = 0x0001,
    KeyExists = 0x0002,
    ValueTooLarge = 0x0003,
    InvalidArguments = 0x0004,
    NotStored = 0x0005,
    NonNumeric = 0x0006,
    OutOfMemory = 0x0082,
    UnknownCommand = 0x0081,
};

/** Fixed 24-byte frame header. */
struct BinHeader
{
    std::uint8_t magic = 0;
    std::uint8_t opcode = 0;
    std::uint16_t keyLength = 0;    //!< Network order on the wire.
    std::uint8_t extrasLength = 0;
    std::uint8_t dataType = 0;
    std::uint16_t status = 0;       //!< vbucket id in requests.
    std::uint32_t bodyLength = 0;   //!< extras + key + value.
    std::uint32_t opaque = 0;
    std::uint64_t cas = 0;
};

constexpr std::size_t kBinHeaderSize = 24;

/** Serialize a header into 24 wire bytes (network byte order). */
void binEncodeHeader(const BinHeader &h, std::uint8_t *out);

/**
 * Parse 24 wire bytes into a header.
 * @return false if the magic byte is not a request/response magic.
 */
bool binDecodeHeader(const std::uint8_t *in, BinHeader &h);

/** Build a complete request frame. */
std::string binRequest(BinOp op, const std::string &key,
                       const std::string &value = "",
                       const std::string &extras = "",
                       std::uint64_t cas = 0, std::uint32_t opaque = 0);

/** Convenience: SET request with the flags/expiry extras. */
std::string binSetRequest(const std::string &key,
                          const std::string &value,
                          std::uint32_t flags = 0,
                          std::uint32_t expiry = 0,
                          BinOp op = BinOp::Set, std::uint64_t cas = 0);

/** Convenience: INCR/DECR request with delta/initial/expiry extras. */
std::string binArithRequest(BinOp op, const std::string &key,
                            std::uint64_t delta);

/** Decoded response, for clients and tests. */
struct BinResponse
{
    BinStatus status = BinStatus::Ok;
    BinOp opcode = BinOp::Noop;
    std::string key;
    std::string extras;
    std::string value;
    std::uint64_t cas = 0;
    std::uint32_t opaque = 0;
};

/**
 * Parse one response frame from @p wire.
 * @return Bytes consumed, or 0 if the buffer does not hold a frame.
 */
std::size_t binParseResponse(const std::string &wire, BinResponse &out);

/**
 * Execute one binary request against the cache and return the
 * response frame(s) (STAT produces several).
 *
 * Quiet gets (GetQ/GetKQ) answer only on a hit — a miss produces no
 * frame at all, which is how memcached clients implement pipelined
 * multi-get. When @p request holds a *run* of complete quiet-get
 * frames back to back (the connection layer concatenates consecutive
 * ones; see Conn::drainFrames), the whole run executes as one
 * CacheIface::getMulti call so a sharded cache visits each touched
 * shard once, and the reply contains the hit frames in request order.
 *
 * @return Empty string if the buffer does not contain a full frame
 *         (callers that only pass complete frames can treat an empty
 *         reply as "nothing to say", e.g. an all-miss quiet-get run).
 */
std::string binaryExecute(CacheIface &cache, std::uint32_t worker,
                          const std::string &request);

/** True when the bytes start with a binary GetQ/GetKQ request header
 *  (the frame need not be complete). */
bool binIsQuietGet(const char *data, std::size_t len);

/** Largest accepted binary request body (extras + key + value). */
constexpr std::size_t kBinMaxBodyBytes = 8 * 1024 * 1024 + 1024;

/** Longest key the binary protocol accepts (memcached KEY_MAX). */
constexpr std::size_t kBinMaxKeyBytes = 250;

/**
 * Scan @p len buffered bytes for one complete binary request frame.
 * Mirrors protocolTryFrame (protocol.h) for the binary wire format:
 * never consumes, never blocks. Error cases: wrong magic, a body
 * larger than kBinMaxBodyBytes, a key longer than kBinMaxKeyBytes, or
 * length fields that disagree — all unrecoverable on a byte stream
 * because resynchronization is impossible.
 */
FrameResult binaryTryFrame(const std::uint8_t *data, std::size_t len);

} // namespace tmemc::mc

#endif // TMEMC_MC_BINARY_PROTOCOL_H
