/**
 * @file
 * Flat binary serialization for machine snapshots.
 *
 * A Serializer appends fixed-width little-endian-in-memory fields to a
 * byte buffer; a Deserializer reads them back in the same order. Every
 * component that participates in MachineSnapshot implements
 * saveState(Serializer &) / restoreState(Deserializer &) against this
 * pair. The format carries no per-field tags — save and restore walk
 * the exact same deterministic structure — so integrity is enforced by
 * the snapshot container (magic, config digest, checksum) plus
 * strategic marker/name checks inside the stream.
 */

#ifndef AGILEPAGING_BASE_SERIALIZE_HH
#define AGILEPAGING_BASE_SERIALIZE_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

namespace ap
{

/** FNV-1a: the snapshot container's integrity hash and the stable
 *  (cross-process) digest behind cache file names. */
inline std::uint64_t
fnv1a(const void *data, std::size_t n,
      std::uint64_t h = 0xcbf29ce484222325ull)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Append-only writer over a growable byte buffer. */
class Serializer
{
  public:
    void
    putU8(std::uint8_t v)
    {
        buf_.push_back(v);
    }

    void putBool(bool v) { putU8(v ? 1 : 0); }

    void
    putU32(std::uint32_t v)
    {
        putRaw(&v, sizeof(v));
    }

    void
    putU64(std::uint64_t v)
    {
        putRaw(&v, sizeof(v));
    }

    void
    putDouble(double v)
    {
        static_assert(sizeof(double) == 8, "unexpected double size");
        putRaw(&v, sizeof(v));
    }

    void
    putString(const std::string &s)
    {
        putU64(s.size());
        putRaw(s.data(), s.size());
    }

    void
    putRaw(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        buf_.insert(buf_.end(), p, p + n);
    }

    /** Length-prefixed vector of a trivially copyable element type. */
    template <typename T>
    void
    putPodVector(const std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "putPodVector needs a trivially copyable element");
        putU64(v.size());
        if (!v.empty())
            putRaw(v.data(), v.size() * sizeof(T));
    }

    /** Structure marker for debugging truncated/misaligned streams. */
    void putMarker(std::uint32_t m) { putU32(m); }

    const std::vector<std::uint8_t> &data() const { return buf_; }
    std::vector<std::uint8_t> takeData() { return std::move(buf_); }
    std::size_t size() const { return buf_.size(); }

  private:
    std::vector<std::uint8_t> buf_;
};

/**
 * Bounds-checked reader. A read past the end (or a failed marker
 * check) latches ok() to false and yields zero values; callers assert
 * ok() at restore boundaries.
 */
class Deserializer
{
  public:
    Deserializer(const std::uint8_t *data, std::size_t size)
        : p_(data), end_(data + size)
    {
    }

    explicit Deserializer(const std::vector<std::uint8_t> &buf)
        : Deserializer(buf.data(), buf.size())
    {
    }

    std::uint8_t
    getU8()
    {
        std::uint8_t v = 0;
        getRaw(&v, sizeof(v));
        return v;
    }

    bool getBool() { return getU8() != 0; }

    std::uint32_t
    getU32()
    {
        std::uint32_t v = 0;
        getRaw(&v, sizeof(v));
        return v;
    }

    std::uint64_t
    getU64()
    {
        std::uint64_t v = 0;
        getRaw(&v, sizeof(v));
        return v;
    }

    double
    getDouble()
    {
        double v = 0;
        getRaw(&v, sizeof(v));
        return v;
    }

    std::string
    getString()
    {
        std::uint64_t n = getU64();
        if (!has(n)) {
            ok_ = false;
            return {};
        }
        std::string s(reinterpret_cast<const char *>(p_),
                      static_cast<std::size_t>(n));
        p_ += n;
        return s;
    }

    void
    getRaw(void *out, std::size_t n)
    {
        if (!has(n)) {
            ok_ = false;
            std::memset(out, 0, n);
            return;
        }
        std::memcpy(out, p_, n);
        p_ += n;
    }

    template <typename T>
    void
    getPodVector(std::vector<T> &out)
    {
        static_assert(std::is_trivially_copyable_v<T>,
                      "getPodVector needs a trivially copyable element");
        std::uint64_t n = getU64();
        // Divide rather than multiply: a hostile length near 2^64 /
        // sizeof(T) would wrap n * sizeof(T) past the bounds check.
        if (!ok_ || n > remaining() / sizeof(T)) {
            ok_ = false;
            out.clear();
            return;
        }
        out.resize(static_cast<std::size_t>(n));
        if (n)
            getRaw(out.data(), static_cast<std::size_t>(n) * sizeof(T));
    }

    /** Consume a marker; mismatch latches failure. */
    void
    checkMarker(std::uint32_t expected)
    {
        if (getU32() != expected)
            ok_ = false;
    }

    bool ok() const { return ok_; }
    /** Latch failure from an application-level integrity check. */
    void fail() { ok_ = false; }
    std::size_t remaining() const { return std::size_t(end_ - p_); }

  private:
    bool
    has(std::uint64_t n) const
    {
        return ok_ && n <= std::uint64_t(end_ - p_);
    }

    const std::uint8_t *p_;
    const std::uint8_t *end_;
    bool ok_ = true;
};

} // namespace ap

#endif // AGILEPAGING_BASE_SERIALIZE_HH
