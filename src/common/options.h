/// \file options.h
/// Typed command-line option parsing shared by the example and bench
/// binaries. Every CLI validates its options up front through these
/// helpers and fails with one canonical message per error shape:
///
///   bad <key> '<s>': want an integer     (OptionMap::getInt)
///   bad <key> '<s>': want a number       (OptionMap::getDouble)
///   bad rates '<s>': want a,b,c or lo:hi:step (step > 0)
///   bad integer list '<s>': want a,b,c
///   unknown <what> '<token>'[; valid: <names>]
///   unknown option '<key>'
///
/// The enum helpers take the canonical `parseX` round-trip functions
/// (parseTopology, parseQosMode, parsePattern, parseLinkTopology, ...)
/// so a CLI never re-implements name matching.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/strings.h"

namespace taqos {

/// Report a malformed option and exit(1) — the CLI contract is that
/// options are validated before any work starts, never silently
/// defaulted.
[[noreturn]] inline void
optionError(const std::string &msg)
{
    std::fprintf(stderr, "%s\n", msg.c_str());
    std::exit(1);
}

[[noreturn]] inline void
unknownValue(const char *what, const std::string &token,
             const std::string &valid = "")
{
    if (valid.empty())
        optionError(strFormat("unknown %s '%s'", what, token.c_str()));
    optionError(strFormat("unknown %s '%s'; valid: %s", what, token.c_str(),
                          valid.c_str()));
}

/// Reject the first option no lookup consumed — a typo or a retired
/// option — with one line, `unknown option '<key>'`. Call once every
/// option has been read, before any work starts.
inline void
rejectUnreadOptions(const OptionMap &opts)
{
    const std::vector<std::string> unread = opts.unread();
    if (!unread.empty())
        optionError(strFormat("unknown option '%s'", unread.front().c_str()));
}

/// Space-joined names of an enum range, for unknownValue's `valid` hint:
/// joinNames(kAllQosModes, qosModeName).
template <typename Range, typename Name>
std::string
joinNames(const Range &range, Name name)
{
    std::string out;
    for (const auto &v : range) {
        if (!out.empty())
            out += ' ';
        out += name(v);
    }
    return out;
}

namespace detail {

[[noreturn]] inline void
badRates(const std::string &s)
{
    optionError(strFormat(
        "bad rates '%s': want a,b,c or lo:hi:step (step > 0)", s.c_str()));
}

inline double
parseRateToken(const std::string &token, const std::string &whole)
{
    const auto v = parseNumber(token);
    if (!v.has_value())
        badRates(whole);
    return *v;
}

} // namespace detail

/// `a,b,c` or `lo:hi:step` -> the list of rates, inclusive of `hi` up to
/// rounding slack. Exits on malformed or empty input.
inline std::vector<double>
parseRateList(const std::string &s)
{
    std::vector<double> rates;
    if (s.find(':') != std::string::npos) {
        const auto parts = strSplit(s, ':');
        if (parts.size() != 3)
            detail::badRates(s);
        const double lo = detail::parseRateToken(strTrim(parts[0]), s);
        const double hi = detail::parseRateToken(strTrim(parts[1]), s);
        const double step = detail::parseRateToken(strTrim(parts[2]), s);
        if (step <= 0.0)
            detail::badRates(s);
        for (double r = lo; r <= hi + 1e-9; r += step)
            rates.push_back(r);
    } else {
        for (const auto &part : strSplit(s, ',')) {
            const std::string token = strTrim(part);
            if (!token.empty())
                rates.push_back(detail::parseRateToken(token, s));
        }
    }
    if (rates.empty())
        detail::badRates(s);
    return rates;
}

/// Comma-separated integers; rejects non-numeric tokens (unlike atoi).
inline std::vector<int>
parseIntList(const std::string &s)
{
    std::vector<int> out;
    for (const auto &part : strSplit(s, ',')) {
        const std::string token = strTrim(part);
        if (token.empty())
            continue;
        char *end = nullptr;
        const long v = std::strtol(token.c_str(), &end, 10);
        if (end == token.c_str() || *end != '\0')
            optionError(
                strFormat("bad integer list '%s': want a,b,c", s.c_str()));
        out.push_back(static_cast<int>(v));
    }
    return out;
}

/// Comma-separated enum names through a canonical `parseX` round-trip.
template <typename Parse>
auto
parseEnumList(const std::string &s, Parse parse, const char *what,
              const std::string &valid = "")
    -> std::vector<typename decltype(parse(std::string{}))::value_type>
{
    std::vector<typename decltype(parse(std::string{}))::value_type> out;
    for (const auto &part : strSplit(s, ',')) {
        const std::string token = strTrim(part);
        if (token.empty())
            continue;
        const auto v = parse(token);
        if (!v.has_value())
            unknownValue(what, token, valid);
        out.push_back(*v);
    }
    return out;
}

/// Single enum-valued option (`key=<name>`); absent -> `dflt`.
template <typename T, typename Parse>
T
enumOption(const OptionMap &opts, const char *key, T dflt, Parse parse,
           const char *what, const std::string &valid = "")
{
    const std::string s = opts.get(key, "");
    if (s.empty())
        return dflt;
    const auto v = parse(s);
    if (!v.has_value())
        unknownValue(what, s, valid);
    return *v;
}

} // namespace taqos
