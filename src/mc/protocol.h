/**
 * @file
 * memcached text-protocol layer: parse commands from a connection
 * buffer, execute them against a CacheIface, and format replies.
 *
 * Supports the commands the study's workloads and examples exercise:
 *
 *   get <key>\r\n
 *   set|add|replace <key> <flags> <exptime> <bytes>\r\n<data>\r\n
 *   cas <key> <flags> <exptime> <bytes> <casid>\r\n<data>\r\n
 *   delete <key>\r\n
 *   incr|decr <key> <delta>\r\n
 *   touch <key> <exptime>\r\n
 *   stats\r\n
 *   flush_all\r\n
 *   version\r\n
 *
 * Parsing happens on the private connection buffer before any lock or
 * transaction is taken, exactly as in memcached; the conversion
 * helpers used here are the uninstrumented clones.
 */

#ifndef TMEMC_MC_PROTOCOL_H
#define TMEMC_MC_PROTOCOL_H

#include <memory>
#include <string>

#include "mc/cache_iface.h"

namespace tmemc::mc
{

/**
 * Execute one protocol request and return the reply text.
 * @param cache  Target cache.
 * @param worker Worker-thread id (for per-thread statistics).
 * @param request Raw request text (commands as documented above).
 */
std::string protocolExecute(CacheIface &cache, std::uint32_t worker,
                            const std::string &request);

// ----------------------------------------------------------------------
// Value copy space
// ----------------------------------------------------------------------

/** Most value bytes a copying GET reply carries for one key. */
constexpr std::size_t kMaxValueCopy = 65536;

/**
 * Uninitialised space to copy the values of a run of @p nkeys GETs
 * into: slot(i), kMaxValueCopy bytes, is key i's. A single-key GET
 * uses one per-thread slot, allocated once and reused by every later
 * request on that thread. A run of several keys gets a block of its
 * own, freed with this object. The space is never zero-filled: a GET
 * writes the bytes it reports, and a reply carries only those.
 * Valid until the next single-key CopySpace on the same thread.
 */
class CopySpace
{
  public:
    explicit CopySpace(std::size_t nkeys);

    char *slot(std::size_t i) const { return base_ + i * kMaxValueCopy; }

  private:
    std::unique_ptr<char[]> own_;
    char *base_ = nullptr;
};

// ----------------------------------------------------------------------
// Streaming framing
// ----------------------------------------------------------------------

/** Longest accepted command line, memcached's conn buffer default. */
constexpr std::size_t kMaxCommandLine = 2048;

/** Largest accepted storage-body byte count (memcached -I ceiling). */
constexpr std::size_t kMaxBodyBytes = 8 * 1024 * 1024;

/** Outcome of scanning a connection buffer for one request. */
enum class FrameStatus
{
    NeedMore,  //!< Buffer holds only a prefix; read more bytes.
    Ready,     //!< A complete request of frameLen bytes is present.
    Error,     //!< Malformed beyond recovery; reply and close.
};

/** Result of protocolTryFrame / binary framing. */
struct FrameResult
{
    FrameStatus status = FrameStatus::NeedMore;
    std::size_t frameLen = 0;   //!< Valid when status == Ready.
    const char *error = nullptr; //!< Reply line when status == Error.
};

/**
 * Scan @p len buffered bytes for one complete text-protocol request.
 *
 * Storage commands (set/add/replace/cas/append/prepend) span the
 * command line plus <bytes> of data plus the trailing CRLF; all other
 * commands are exactly one line. The scan never blocks and never
 * consumes: callers slice frameLen bytes off their buffer when the
 * status is Ready. A command line longer than kMaxCommandLine or a
 * body larger than kMaxBodyBytes yields Error with a CLIENT_ERROR
 * reply text, matching memcached's "line too long" handling.
 */
FrameResult protocolTryFrame(const char *data, std::size_t len);

} // namespace tmemc::mc

#endif // TMEMC_MC_PROTOCOL_H
