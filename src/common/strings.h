/// \file strings.h
/// Small string utilities: printf-style formatting, splitting, trimming,
/// and a `key=value` command-line option parser used by examples/benches.
#pragma once

#include <cstdarg>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace taqos {

/// printf-style formatting into a std::string.
std::string strFormat(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Split on a single character; empty fields preserved.
std::vector<std::string> strSplit(const std::string &s, char sep);

/// Strip leading/trailing ASCII whitespace.
std::string strTrim(const std::string &s);

/// Lower-case ASCII copy.
std::string strLower(const std::string &s);

/// All of `s` as an integer, with strtoll's base-0 prefixes (0x... hex,
/// 0... octal); nullopt when `s` is empty or has trailing garbage.
std::optional<std::int64_t> parseInteger(const std::string &s);

/// All of `s` as a double (strtod syntax); nullopt when `s` is empty or
/// has trailing garbage.
std::optional<double> parseNumber(const std::string &s);

/// Parses argv of the form `key=value ...` (plus bare flags, stored with
/// value "1"). Every lookup (has or a getter) marks its key as read, so
/// a CLI can reject the keys it never consumed (unread()). getInt and
/// getDouble exit(1) on a malformed value, with one line (options.h).
class OptionMap {
  public:
    OptionMap() = default;
    OptionMap(int argc, char **argv);

    bool has(const std::string &key) const;
    std::string get(const std::string &key, const std::string &dflt) const;
    std::int64_t getInt(const std::string &key, std::int64_t dflt) const;
    double getDouble(const std::string &key, double dflt) const;
    bool getBool(const std::string &key, bool dflt) const;

    /// Keys given on the command line that no lookup has read yet, in
    /// key order.
    std::vector<std::string> unread() const;

  private:
    /// The value of `key` (null when absent); marks the key read.
    const std::string *find(const std::string &key) const;

    std::map<std::string, std::string> kv_;
    mutable std::set<std::string> read_;
};

} // namespace taqos
