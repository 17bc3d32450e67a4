/**
 * @file
 * Masked redo log for buffered-update algorithms (Lazy, RA, NOrec).
 *
 * Entries are word-granular with byte-enable masks. The paper notes
 * that buffering byte-by-byte stores (tm_memcpy) and later reading them
 * back as words "necessitated an expensive logging mechanism" — this is
 * that mechanism: a vector of entries plus an open-addressing index so
 * read-after-write lookups are O(1) rather than a scan.
 */

#ifndef TMEMC_TM_REDO_LOG_H
#define TMEMC_TM_REDO_LOG_H

#include <cstdint>
#include <vector>

#include "common/compiler.h"
#include "tm/raw.h"

namespace tmemc::tm
{

/** One buffered word write. */
struct RedoEntry
{
    std::uintptr_t wordAddr;  //!< Aligned base address of the word.
    std::uint64_t value;      //!< Buffered bytes (valid where mask set).
    std::uint64_t mask;       //!< Byte-enable mask.
};

/** Word-granular write buffer with O(1) lookup. */
class RedoLog
{
  public:
    RedoLog() { rebuildIndex(64); }

    /** Buffer @p val's @p mask bytes for the word at @p word_addr. */
    void
    insert(std::uintptr_t word_addr, std::uint64_t val, std::uint64_t mask)
    {
        std::size_t slot = findSlot(word_addr);
        if (index_[slot].addr == word_addr) {
            RedoEntry &e = entries_[index_[slot].pos];
            e.value = maskMerge(e.value, val, mask);
            e.mask |= mask;
            return;
        }
        entries_.push_back({word_addr, val & mask, mask});
        index_[slot] = {word_addr, entries_.size() - 1};
        if (++population_ * 2 > index_.size())
            rebuildIndex(index_.size() * 2);
    }

    /**
     * Look up buffered bytes for @p word_addr.
     * @param[out] val  Buffered value (only mask bytes valid).
     * @param[out] mask Byte-enable mask of buffered bytes.
     * @return true if any bytes of the word are buffered.
     */
    TMEMC_ALWAYS_INLINE bool
    lookup(std::uintptr_t word_addr, std::uint64_t &val,
           std::uint64_t &mask) const
    {
        if (entries_.empty())
            return false;
        const std::size_t slot = findSlot(word_addr);
        if (index_[slot].addr != word_addr)
            return false;
        const RedoEntry &e = entries_[index_[slot].pos];
        val = e.value;
        mask = e.mask;
        return true;
    }

    /**
     * Read the word at @p word_addr through the log: buffered bytes win
     * over @p read_memory(), which runs only when the log does not
     * cover the whole word.
     */
    template <typename ReadMemory>
    TMEMC_ALWAYS_INLINE std::uint64_t
    readThrough(std::uintptr_t word_addr, ReadMemory &&read_memory) const
    {
        std::uint64_t val = 0;
        std::uint64_t mask = 0;
        const bool buffered = lookup(word_addr, val, mask);
        if (buffered && mask == ~std::uint64_t{0})
            return val;  // Fully covered by our own writes.
        const std::uint64_t mem = read_memory();
        return buffered ? maskMerge(mem, val, mask) : mem;
    }

    /** Merge every buffered write into memory. The caller excludes
     *  other writers of these words (orec locks, NOrec's seqlock). */
    void
    writeBack() const
    {
        for (const RedoEntry &e : entries_) {
            void *p = reinterpret_cast<void *>(e.wordAddr);
            rawStore(p, maskMerge(rawLoad(p), e.value, e.mask));
        }
    }

    /** All buffered entries, in insertion order. */
    const std::vector<RedoEntry> &entries() const { return entries_; }

    bool empty() const { return entries_.empty(); }
    std::size_t size() const { return entries_.size(); }

    /**
     * Discard all buffered writes (abort or commit completion). Every
     * transaction clears twice, so this empties only the index slots
     * the entries hold rather than the whole index, however large one
     * big transaction grew it. Newest first: an entry's probe path
     * runs only through slots of entries inserted before it (rebuilds
     * reinsert in entry order), so each path is intact when cleared.
     */
    void
    clear()
    {
        if (entries_.empty())
            return;
        for (auto e = entries_.rbegin(); e != entries_.rend(); ++e)
            index_[findSlot(e->wordAddr)] = {0, 0};
        entries_.clear();
        population_ = 0;
    }

  private:
    struct Slot
    {
        std::uintptr_t addr = 0;  //!< 0 means empty (address 0 unused).
        std::size_t pos = 0;
    };

    std::size_t
    findSlot(std::uintptr_t addr) const
    {
        std::size_t h = (addr >> 3) * 0x9e3779b97f4a7c15ull;
        std::size_t slot = h & (index_.size() - 1);
        while (index_[slot].addr != 0 && index_[slot].addr != addr)
            slot = (slot + 1) & (index_.size() - 1);
        return slot;
    }

    void
    rebuildIndex(std::size_t new_size)
    {
        index_.assign(new_size, Slot{});
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            const std::size_t slot = findSlot(entries_[i].wordAddr);
            index_[slot] = {entries_[i].wordAddr, i};
        }
    }

    std::vector<RedoEntry> entries_;
    std::vector<Slot> index_;
    std::size_t population_ = 0;
};

} // namespace tmemc::tm

#endif // TMEMC_TM_REDO_LOG_H
