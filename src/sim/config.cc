/**
 * @file
 * Option parsing for SimConfig.
 */

#include "sim/config.hh"

#include <algorithm>
#include <cctype>

namespace ap
{

namespace
{
std::string
lower(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return s;
}
} // namespace

bool
parseVirtMode(const std::string &s, VirtMode &out)
{
    std::string v = lower(s);
    if (v == "native" || v == "b") {
        out = VirtMode::Native;
    } else if (v == "nested" || v == "n") {
        out = VirtMode::Nested;
    } else if (v == "shadow" || v == "s") {
        out = VirtMode::Shadow;
    } else if (v == "agile" || v == "a") {
        out = VirtMode::Agile;
    } else if (v == "shsp") {
        out = VirtMode::Shsp;
    } else if (v == "range" || v == "r") {
        out = VirtMode::Range;
    } else {
        return false;
    }
    return true;
}

bool
parsePageSize(const std::string &s, PageSize &out)
{
    std::string v = lower(s);
    if (v == "4k") {
        out = PageSize::Size4K;
    } else if (v == "2m") {
        out = PageSize::Size2M;
    } else {
        return false;
    }
    return true;
}

bool
parseU64(const std::string &s, std::uint64_t &out)
{
    // std::stoull alone is too forgiving: it accepts leading
    // whitespace and a sign (negatives wrap modulo 2^64) and ignores
    // trailing junk ("4k" parses as 4). Require a pure digit string.
    if (s.empty() || !std::isdigit(static_cast<unsigned char>(s[0])))
        return false;
    std::size_t pos = 0;
    std::uint64_t v = 0;
    try {
        v = std::stoull(s, &pos, 10);
    } catch (...) {
        return false; // overflow
    }
    if (pos != s.size())
        return false;
    // Assign only on success so a rejected option leaves the caller's
    // value untouched.
    out = v;
    return true;
}

bool
SimConfig::applyOption(const std::string &option)
{
    auto eq = option.find('=');
    if (eq == std::string::npos)
        return false;
    std::string key = lower(option.substr(0, eq));
    std::string value = option.substr(eq + 1);

    if (key == "mode")
        return parseVirtMode(value, mode);
    if (key == "page" || key == "pagesize") {
        if (!parsePageSize(value, pageSize))
            return false;
        guestOs.pageSize = pageSize;
        return true;
    }
    auto as_u64 = [&value](std::uint64_t &out) {
        return parseU64(value, out);
    };
    auto as_bool = [&value](bool &out) {
        std::string v = lower(value);
        if (v == "1" || v == "true" || v == "on") {
            out = true;
        } else if (v == "0" || v == "false" || v == "off") {
            out = false;
        } else {
            return false;
        }
        return true;
    };

    if (key == "walk_ref_cycles")
        return as_u64(walkRefCycles);
    if (key == "host_mem_frames")
        return as_u64(hostMemFrames);
    if (key == "policy_interval")
        return as_u64(policyIntervalOps);
    if (key == "pwc")
        return as_bool(pwcEnabled);
    if (key == "ntlb")
        return as_bool(ntlbEnabled);
    if (key == "unsync")
        return as_bool(unsyncEnabled);
    if (key == "hw_ad")
        return as_bool(hwOptAd);
    if (key == "verify")
        return as_bool(verifyTranslations);
    if (key == "sptr_cache") {
        std::uint64_t n;
        if (!as_u64(n))
            return false;
        sptrCacheEntries = n;
        return true;
    }
    if (key == "hw_opts") {
        bool on;
        if (!as_bool(on))
            return false;
        if (on)
            enableHwOpts();
        return true;
    }
    if (key == "num_vcpus") {
        std::uint64_t n;
        if (!as_u64(n) || n == 0 || n > 64)
            return false;
        numVcpus = static_cast<unsigned>(n);
        return true;
    }
    if (key == "tlb_coherence") {
        std::string v = lower(value);
        if (v == "sw" || v == "software") {
            tlbCoherence = TlbCoherence::Software;
        } else if (v == "hw" || v == "hardware") {
            tlbCoherence = TlbCoherence::Hardware;
        } else {
            return false;
        }
        return true;
    }
    if (key == "vcpu_quantum") {
        std::uint64_t n;
        if (!as_u64(n) || n == 0)
            return false;
        vcpuQuantumOps = n;
        return true;
    }
    if (key == "segment_regs") {
        std::uint64_t n;
        if (!as_u64(n) || n == 0 || n > 1024)
            return false;
        range.segmentRegs = static_cast<std::uint32_t>(n);
        return true;
    }
    if (key == "segment_min_pages") {
        std::uint64_t n;
        if (!as_u64(n) || n == 0)
            return false;
        range.segmentMinPages = n;
        return true;
    }
    if (key == "segment_max_pages") {
        std::uint64_t n;
        if (!as_u64(n) || n == 0)
            return false;
        range.segmentMaxPages = n;
        return true;
    }
    if (key == "segment_fill_cycles")
        return as_u64(range.segmentFillCycles);
    if (key == "back_policy") {
        std::string v = lower(value);
        if (v == "none") {
            policy.backPolicy = BackPolicy::None;
        } else if (v == "periodic") {
            policy.backPolicy = BackPolicy::PeriodicReset;
        } else if (v == "dirty") {
            policy.backPolicy = BackPolicy::DirtyScan;
        } else {
            return false;
        }
        return true;
    }
    return false;
}

} // namespace ap
