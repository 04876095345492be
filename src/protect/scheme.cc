#include "protect/scheme.hh"

#include <cctype>
#include <sstream>

#include "base/env.hh"

namespace smtavf
{

namespace
{

std::string
lower(const std::string &text)
{
    std::string out = text;
    for (char &c : out)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

std::uint64_t
coverageOf(std::uint64_t bit_cycles, std::uint64_t coverage256)
{
    // Floor division keeps covered <= bit_cycles and is monotone in the
    // coverage numerator, which is what the residual ordering proofs in
    // tests/test_protect.cc rely on.
    return (bit_cycles * coverage256) >> 8;
}

} // namespace

const char *
protSchemeName(ProtScheme s)
{
    switch (s) {
      case ProtScheme::None: return "none";
      case ProtScheme::Parity: return "parity";
      case ProtScheme::Secded: return "secded";
      case ProtScheme::SecdedScrub: return "secded+scrub";
      default: return "?";
    }
}

bool
parseProtScheme(const std::string &name, ProtScheme &out)
{
    std::string n = lower(name);
    if (n == "none") {
        out = ProtScheme::None;
    } else if (n == "parity") {
        out = ProtScheme::Parity;
    } else if (n == "secded" || n == "ecc") {
        out = ProtScheme::Secded;
    } else if (n == "secded+scrub" || n == "scrub" || n == "ecc+scrub") {
        out = ProtScheme::SecdedScrub;
    } else {
        return false;
    }
    return true;
}

std::uint64_t
coveredAceBitCycles(ProtScheme scheme, Cycle scrub_interval,
                    std::uint32_t bits, Cycle start, Cycle end)
{
    if (end <= start || bits == 0 || scheme == ProtScheme::None)
        return 0;
    const Cycle length = end - start;
    const std::uint64_t total = static_cast<std::uint64_t>(bits) * length;

    switch (scheme) {
      case ProtScheme::Parity:
        return coverageOf(total, parityCoverage256);
      case ProtScheme::Secded:
        return coverageOf(total, secdedCoverage256);
      case ProtScheme::SecdedScrub: {
        // A flip is exposed only if it lands within scrub_interval cycles
        // of the consuming read at the interval's end; everything earlier
        // is corrected by a sweep first. The exposed tail is then covered
        // at the SECDED rate. With no scrubbing (interval 0) this
        // degenerates to plain SECDED.
        Cycle exposed = (scrub_interval == 0 || length <= scrub_interval)
                            ? length
                            : scrub_interval;
        std::uint64_t scrubbed =
            static_cast<std::uint64_t>(bits) * (length - exposed);
        std::uint64_t tail = static_cast<std::uint64_t>(bits) * exposed;
        return scrubbed + coverageOf(tail, secdedCoverage256);
      }
      default:
        return 0;
    }
}

const char *
hwStructKey(HwStruct s)
{
    switch (s) {
      case HwStruct::IQ: return "iq";
      case HwStruct::RegFile: return "regfile";
      case HwStruct::FU: return "fu";
      case HwStruct::ROB: return "rob";
      case HwStruct::LsqData: return "lsqdata";
      case HwStruct::LsqTag: return "lsqtag";
      case HwStruct::Dl1Data: return "dl1data";
      case HwStruct::Dl1Tag: return "dl1tag";
      case HwStruct::Dtlb: return "dtlb";
      case HwStruct::Itlb: return "itlb";
      case HwStruct::L2Data: return "l2data";
      case HwStruct::L2Tag: return "l2tag";
      default: return "?";
    }
}

bool
parseHwStructKey(const std::string &key, HwStruct &out)
{
    std::string k = lower(key);
    for (std::size_t i = 0; i < numHwStructs; ++i) {
        auto s = static_cast<HwStruct>(i);
        if (k == hwStructKey(s)) {
            out = s;
            return true;
        }
    }
    return false;
}

bool
ProtectionConfig::any() const
{
    for (auto s : scheme)
        if (s != ProtScheme::None)
            return true;
    return false;
}

std::string
ProtectionConfig::str() const
{
    if (!any())
        return "none";
    std::ostringstream os;
    bool first = true;
    bool global_scrub = false;
    for (std::size_t i = 0; i < numHwStructs; ++i) {
        auto s = static_cast<HwStruct>(i);
        if (schemeFor(s) == ProtScheme::None)
            continue;
        if (!first)
            os << ',';
        os << hwStructKey(s) << '=' << protSchemeName(schemeFor(s));
        if (schemeFor(s) == ProtScheme::SecdedScrub) {
            if (Cycle o = scrubOverride[i])
                os << '@' << o;
            else
                global_scrub = true;
        }
        first = false;
    }
    if (global_scrub)
        os << ",scrub=" << scrubInterval;
    return os.str();
}

std::string
ProtectionConfig::validateMsg() const
{
    for (std::size_t i = 0; i < numHwStructs; ++i) {
        auto s = static_cast<HwStruct>(i);
        if (schemeFor(s) != ProtScheme::SecdedScrub)
            continue;
        Cycle interval = scrubIntervalFor(s);
        if (interval == 0)
            return "scrubInterval must be positive when a structure uses "
                   "secded+scrub";
        if (interval > (Cycle{1} << 30))
            return std::string("absurd scrub interval for ") +
                   hwStructKey(s) + ": " + std::to_string(interval) +
                   " cycles (limit 2^30)";
    }
    if (scrubInterval > (Cycle{1} << 30))
        return "absurd scrubInterval: " + std::to_string(scrubInterval) +
               " cycles (limit 2^30)";
    return "";
}

ProtectionConfig
uniformProtection(ProtScheme s, Cycle scrub_interval)
{
    ProtectionConfig p;
    p.scheme.fill(s);
    p.scrubInterval = scrub_interval;
    return p;
}

bool
parseAssignment(const std::string &spec, ProtectionConfig &out,
                std::string &err)
{
    std::istringstream in(spec);
    std::string pair;
    bool saw_any = false;
    while (std::getline(in, pair, ',')) {
        if (pair.empty())
            continue;
        auto eq = pair.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 == pair.size()) {
            err = "malformed assignment '" + pair +
                  "' (want structure=scheme)";
            return false;
        }
        std::string key = pair.substr(0, eq);
        std::string value = pair.substr(eq + 1);
        HwStruct s;
        if (!parseHwStructKey(key, s)) {
            err = "unknown structure '" + key + "' (try iq, regfile, fu, "
                  "rob, lsqdata, lsqtag, dl1data, dl1tag, dtlb, itlb, "
                  "l2data, l2tag)";
            return false;
        }
        // "scrub@N" / "secded+scrub@N": per-structure scrub interval.
        Cycle interval = 0;
        auto at = value.find('@');
        if (at != std::string::npos) {
            std::uint64_t n = 0;
            if (!strictParseU64(value.substr(at + 1).c_str(), n) || n == 0) {
                err = "bad scrub interval in '" + pair +
                      "' (want scheme@cycles with cycles > 0)";
                return false;
            }
            interval = n;
            value = value.substr(0, at);
        }
        ProtScheme p;
        if (!parseProtScheme(value, p)) {
            err = "unknown scheme '" + value +
                  "' (try none, parity, secded/ecc, secded+scrub)";
            return false;
        }
        if (interval != 0 && p != ProtScheme::SecdedScrub) {
            err = "scrub interval '" + pair +
                  "' only applies to secded+scrub";
            return false;
        }
        out.assign(s, p);
        out.scrubOverride[static_cast<std::size_t>(s)] = interval;
        saw_any = true;
    }
    if (!saw_any) {
        err = "empty assignment list";
        return false;
    }
    return true;
}

} // namespace smtavf
