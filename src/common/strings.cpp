#include "common/strings.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "common/options.h"

namespace taqos {

std::string
strFormat(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list copy;
    va_copy(copy, args);
    const int need = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    std::string out;
    if (need > 0) {
        out.resize(static_cast<std::size_t>(need));
        std::vsnprintf(out.data(), out.size() + 1, fmt, args);
    }
    va_end(args);
    return out;
}

std::vector<std::string>
strSplit(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (true) {
        const std::size_t pos = s.find(sep, start);
        if (pos == std::string::npos) {
            out.push_back(s.substr(start));
            return out;
        }
        out.push_back(s.substr(start, pos - start));
        start = pos + 1;
    }
}

std::string
strTrim(const std::string &s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

std::string
strLower(const std::string &s)
{
    std::string out = s;
    for (auto &c : out)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

std::optional<std::int64_t>
parseInteger(const std::string &s)
{
    char *end = nullptr;
    const long long v = std::strtoll(s.c_str(), &end, 0);
    if (end == s.c_str() || *end != '\0')
        return std::nullopt;
    return v;
}

std::optional<double>
parseNumber(const std::string &s)
{
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str() || *end != '\0')
        return std::nullopt;
    return v;
}

OptionMap::OptionMap(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::size_t eq = arg.find('=');
        if (eq == std::string::npos)
            kv_[strTrim(arg)] = "1";
        else
            kv_[strTrim(arg.substr(0, eq))] = strTrim(arg.substr(eq + 1));
    }
}

const std::string *
OptionMap::find(const std::string &key) const
{
    const auto it = kv_.find(key);
    if (it == kv_.end())
        return nullptr;
    read_.insert(key);
    return &it->second;
}

bool
OptionMap::has(const std::string &key) const
{
    return find(key) != nullptr;
}

std::string
OptionMap::get(const std::string &key, const std::string &dflt) const
{
    const std::string *v = find(key);
    return v == nullptr ? dflt : *v;
}

std::int64_t
OptionMap::getInt(const std::string &key, std::int64_t dflt) const
{
    const std::string *v = find(key);
    if (v == nullptr)
        return dflt;
    const auto n = parseInteger(*v);
    if (!n.has_value()) {
        optionError(strFormat("bad %s '%s': want an integer", key.c_str(),
                              v->c_str()));
    }
    return *n;
}

double
OptionMap::getDouble(const std::string &key, double dflt) const
{
    const std::string *v = find(key);
    if (v == nullptr)
        return dflt;
    const auto x = parseNumber(*v);
    if (!x.has_value()) {
        optionError(strFormat("bad %s '%s': want a number", key.c_str(),
                              v->c_str()));
    }
    return *x;
}

bool
OptionMap::getBool(const std::string &key, bool dflt) const
{
    const std::string *v = find(key);
    if (v == nullptr)
        return dflt;
    const std::string lower = strLower(*v);
    return lower == "1" || lower == "true" || lower == "yes" ||
           lower == "on";
}

std::vector<std::string>
OptionMap::unread() const
{
    std::vector<std::string> out;
    for (const auto &kv : kv_) {
        if (read_.count(kv.first) == 0)
            out.push_back(kv.first);
    }
    return out;
}

} // namespace taqos
