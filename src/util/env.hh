/**
 * @file
 * Strict environment-variable parsing. lvplib knobs (LVPLIB_SCALE,
 * LVPLIB_JOBS, ...) are numeric; a typo silently becoming 0 via atoi
 * is worse than rejecting it loudly, so everything goes through
 * std::from_chars with full-string and range validation. The same
 * parser checks the numeric command-line options of lvpbench and
 * lvpsim.
 */

#ifndef LVPLIB_UTIL_ENV_HH
#define LVPLIB_UTIL_ENV_HH

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string_view>

namespace lvplib
{

/**
 * Parse @p s as a whole base-10 unsigned integer within [@p min,
 * @p max]: no sign, no whitespace, no trailing characters, no
 * overflow.
 *
 * @return The value, or std::nullopt when @p s is anything else.
 */
inline std::optional<unsigned long long>
parseUnsigned(std::string_view s, unsigned long long min = 0,
              unsigned long long max =
                  ~static_cast<unsigned long long>(0))
{
    unsigned long long v = 0;
    const char *end = s.data() + s.size();
    auto [ptr, ec] = std::from_chars(s.data(), end, v);
    if (ec != std::errc() || ptr != end || v < min || v > max)
        return std::nullopt;
    return v;
}

/**
 * Parse @p s as a whole finite, non-negative decimal number (a
 * tolerance, say): no sign, no whitespace, no trailing characters,
 * and no inf, nan or out-of-range exponent such as 1e999.
 *
 * @return The value, or std::nullopt when @p s is anything else.
 */
inline std::optional<double>
parseNonNegative(std::string_view s)
{
    double v = 0;
    const char *end = s.data() + s.size();
    auto [ptr, ec] = std::from_chars(s.data(), end, v);
    if (ec != std::errc() || ptr != end || !std::isfinite(v) ||
        std::signbit(v))
        return std::nullopt;
    return v;
}

/**
 * Parse environment variable @p name as an unsigned integer.
 *
 * @return The value when @p name is set to a whole base-10 integer
 * within [@p min, @p max] (see parseUnsigned); std::nullopt when the
 * variable is unset. Garbage, trailing characters, overflow, or
 * out-of-range values are rejected with a warning on stderr (and
 * treated as unset), never silently coerced.
 */
inline std::optional<unsigned long long>
envUnsigned(const char *name, unsigned long long min = 0,
            unsigned long long max =
                ~static_cast<unsigned long long>(0))
{
    const char *s = std::getenv(name);
    if (!s || !*s)
        return std::nullopt;
    auto v = parseUnsigned(s, min, max);
    if (!v)
        std::fprintf(stderr,
                     "lvplib: ignoring %s='%s' (expected an integer "
                     "in [%llu, %llu])\n",
                     name, s, min, max);
    return v;
}

} // namespace lvplib

#endif // LVPLIB_UTIL_ENV_HH
