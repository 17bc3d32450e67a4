/**
 * @file
 * Reference-model oracle: long random operation sequences executed
 * against both the cache and a trivially-correct in-memory model;
 * every observable result must match, for every branch.
 *
 * Sequential oracle runs catch semantic bugs (wrong CAS behaviour,
 * clobbered values, phantom items) that invariant checks miss; the
 * concurrent suites cover interleaving separately.
 */

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <unordered_map>

#include "common/rng.h"
#include "mc/cache_iface.h"
#include "tm/api.h"

namespace
{

using namespace tmemc;
using namespace tmemc::mc;

/** The trivially-correct model. */
class ModelCache
{
  public:
    struct Entry
    {
        std::string value;
        std::uint64_t cas;
    };

    OpStatus
    store(const std::string &key, const std::string &val, StoreMode mode,
          std::uint64_t cas_expected)
    {
        auto it = map_.find(key);
        switch (mode) {
          case StoreMode::Add:
            if (it != map_.end())
                return OpStatus::NotStored;
            break;
          case StoreMode::Replace:
            if (it == map_.end())
                return OpStatus::NotStored;
            break;
          case StoreMode::Cas:
            if (it == map_.end())
                return OpStatus::Miss;
            if (it->second.cas != cas_expected)
                return OpStatus::Exists;
            break;
          case StoreMode::Set:
            break;
        }
        map_[key] = {val, ++casCounter_};
        return OpStatus::Ok;
    }

    std::optional<Entry>
    get(const std::string &key) const
    {
        auto it = map_.find(key);
        if (it == map_.end())
            return std::nullopt;
        return it->second;
    }

    bool
    del(const std::string &key)
    {
        return map_.erase(key) > 0;
    }

    OpStatus
    concat(const std::string &key, const std::string &extra, bool append)
    {
        auto it = map_.find(key);
        if (it == map_.end())
            return OpStatus::NotStored;
        it->second.value =
            append ? it->second.value + extra : extra + it->second.value;
        it->second.cas = ++casCounter_;
        return OpStatus::Ok;
    }

    OpStatus
    arith(const std::string &key, std::uint64_t delta, bool incr,
          std::uint64_t &out)
    {
        auto it = map_.find(key);
        if (it == map_.end())
            return OpStatus::Miss;
        const std::uint64_t cur =
            std::strtoull(it->second.value.c_str(), nullptr, 10);
        out = incr ? cur + delta : (cur < delta ? 0 : cur - delta);
        it->second.value = std::to_string(out);
        it->second.cas = ++casCounter_;
        return OpStatus::Ok;
    }

    std::size_t size() const { return map_.size(); }

  private:
    std::unordered_map<std::string, Entry> map_;
    std::uint64_t casCounter_ = 0;
};

class OracleTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(OracleTest, RandomOpSequenceMatchesModel)
{
    tm::Runtime::get().configure(runtimeCfgFor(GetParam()));
    Settings s;
    s.maxBytes = 64 * 1024 * 1024;  // No evictions: model has none.
    s.hashPowerInit = 6;            // Force expansions mid-sequence.
    auto cache = makeShardedCache(GetParam(), s, 1);
    ASSERT_NE(cache, nullptr);
    ModelCache model;

    XorShift128 rng(0xda7a + GetParam().size());
    char buf[512];
    constexpr int ops = 20000;
    constexpr int key_space = 300;

    for (int i = 0; i < ops; ++i) {
        const std::string key =
            "o" + std::to_string(rng.nextBounded(key_space));
        const double roll = rng.nextDouble();

        if (roll < 0.35) {
            // get: value and hit/miss must match; CAS ids are
            // generation counters in both, but with different
            // numbering, so only presence is compared.
            const auto r = cache->get(0, key.data(), key.size(), buf,
                                      sizeof(buf));
            const auto m = model.get(key);
            ASSERT_EQ(r.status == OpStatus::Ok, m.has_value())
                << "op " << i << " get " << key;
            if (m) {
                ASSERT_EQ(std::string(buf, r.vlen), m->value)
                    << "op " << i << " get " << key;
            }
        } else if (roll < 0.6) {
            const std::string val =
                key + "=" + std::to_string(rng.nextBounded(1 << 20));
            const auto mode =
                rng.nextDouble() < 0.5
                    ? StoreMode::Set
                    : (rng.nextDouble() < 0.5 ? StoreMode::Add
                                              : StoreMode::Replace);
            const auto st = cache->store(0, key.data(), key.size(),
                                         val.data(), val.size(), mode, 0);
            const auto ms = model.store(key, val, mode, 0);
            ASSERT_EQ(st, ms) << "op " << i << " store " << key;
        } else if (roll < 0.7) {
            // CAS: read the real cache's CAS id, sometimes corrupt it.
            const auto r = cache->get(0, key.data(), key.size(), buf,
                                      sizeof(buf));
            const bool corrupt = rng.nextDouble() < 0.4;
            if (r.status == OpStatus::Ok) {
                const std::uint64_t cas = r.casId + (corrupt ? 7 : 0);
                const std::string val = key + "+cas";
                const auto st =
                    cache->store(0, key.data(), key.size(), val.data(),
                                 val.size(), StoreMode::Cas, cas);
                // Mirror into the model using its own CAS numbering.
                const auto m = model.get(key);
                ASSERT_TRUE(m.has_value());
                const auto ms = model.store(
                    key, val, StoreMode::Cas,
                    corrupt ? m->cas + 7 : m->cas);
                ASSERT_EQ(st, ms) << "op " << i << " cas " << key;
            }
        } else if (roll < 0.75) {
            const auto st = cache->del(0, key.data(), key.size());
            const bool md = model.del(key);
            ASSERT_EQ(st == OpStatus::Ok, md) << "op " << i;
        } else if (roll < 0.8) {
            const bool append = rng.nextDouble() < 0.5;
            const std::string extra =
                "+" + std::to_string(rng.nextBounded(100));
            const auto st = cache->concat(0, key.data(), key.size(),
                                          extra.data(), extra.size(),
                                          append);
            const auto ms = model.concat(key, extra, append);
            ASSERT_EQ(st, ms) << "op " << i << " concat " << key;
        } else if (roll < 0.9) {
            // Seed a numeric value sometimes so arith hits.
            if (rng.nextDouble() < 0.3) {
                const std::string num =
                    std::to_string(rng.nextBounded(1000));
                cache->store(0, key.data(), key.size(), num.data(),
                             num.size());
                model.store(key, num, StoreMode::Set, 0);
            }
            std::uint64_t got = 0;
            std::uint64_t want = 0;
            const bool incr = rng.nextDouble() < 0.5;
            const std::uint64_t delta = rng.nextBounded(50);
            const auto st = cache->arith(0, key.data(), key.size(),
                                         delta, incr, got);
            const auto ms = model.arith(key, delta, incr, want);
            ASSERT_EQ(st, ms) << "op " << i << " arith " << key;
            if (st == OpStatus::Ok)
                ASSERT_EQ(got, want) << "op " << i << " arith " << key;
        } else {
            // Cross-check the census.
            ASSERT_EQ(cache->globalStats().currItems, model.size())
                << "op " << i;
        }
    }
    cache->quiesceMaintenance();
    ASSERT_EQ(cache->globalStats().currItems, model.size());
    ASSERT_EQ(cache->linkedItemCount(), model.size());
    // Final full sweep: every model key must read back exactly.
    for (int k = 0; k < key_space; ++k) {
        const std::string key = "o" + std::to_string(k);
        const auto m = model.get(key);
        const auto r =
            cache->get(0, key.data(), key.size(), buf, sizeof(buf));
        ASSERT_EQ(r.status == OpStatus::Ok, m.has_value()) << key;
        if (m)
            ASSERT_EQ(std::string(buf, r.vlen), m->value) << key;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllBranches, OracleTest, ::testing::ValuesIn(allBranchNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

} // namespace
