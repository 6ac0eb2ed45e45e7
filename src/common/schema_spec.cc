#include "common/schema_spec.h"

#include <limits>
#include <vector>

#include "common/flags.h"

namespace ldv {

namespace {

// Parses one `[name ':'] domain-size` item. `ordinal` numbers the
// generated fallback name.
bool ParseAttribute(std::string_view item, std::string_view fallback_name, Attribute* out,
                    std::string* error) {
  std::string_view name = fallback_name;
  std::string_view size_text = item;
  std::size_t colon = item.find(':');
  if (colon != std::string_view::npos) {
    name = item.substr(0, colon);
    size_text = item.substr(colon + 1);
    if (name.empty()) {
      *error = "schema spec: empty attribute name in '" + std::string(item) + "'";
      return false;
    }
  }
  std::uint64_t size = 0;
  if (!ParseUint64(size_text, &size) || size == 0) {
    *error = "schema spec: attribute '" + std::string(name) +
             "' needs a positive domain size, got '" + std::string(size_text) + "'";
    return false;
  }
  // Codes are 32-bit, and a box bound of the domain size must be one too.
  if (size > std::numeric_limits<Value>::max()) {
    *error = "schema spec: attribute '" + std::string(name) + "' has domain size " +
             std::to_string(size) + ", above the 4294967295 that 32-bit codes allow";
    return false;
  }
  out->name = std::string(name);
  out->domain_size = static_cast<std::size_t>(size);
  return true;
}

bool SplitList(std::string_view text, std::vector<std::string_view>* out, std::string* error) {
  out->clear();
  while (true) {
    std::size_t comma = text.find(',');
    std::string_view item = text.substr(0, comma);
    if (item.empty()) {
      *error = "schema spec: empty attribute entry";
      return false;
    }
    out->push_back(item);
    if (comma == std::string_view::npos) return true;
    text.remove_prefix(comma + 1);
  }
}

}  // namespace

std::optional<Schema> ParseSchemaSpec(std::string_view spec, std::string* error) {
  if (spec.empty()) {
    *error = "schema spec is empty (expected e.g. 'Age:79,Gender:2|Income:50')";
    return std::nullopt;
  }

  std::string_view qi_part = spec;
  std::string_view sa_part;
  std::size_t bar = spec.find('|');
  if (bar != std::string_view::npos) {
    qi_part = spec.substr(0, bar);
    sa_part = spec.substr(bar + 1);
    if (sa_part.find('|') != std::string_view::npos) {
      *error = "schema spec: more than one '|' separator";
      return std::nullopt;
    }
    if (sa_part.empty()) {
      *error = "schema spec: missing sensitive attribute after '|'";
      return std::nullopt;
    }
    if (sa_part.find(',') != std::string_view::npos) {
      *error = "schema spec: exactly one sensitive attribute allowed after '|'";
      return std::nullopt;
    }
  }

  std::vector<std::string_view> items;
  if (!SplitList(qi_part, &items, error)) return std::nullopt;
  if (sa_part.empty()) {
    // `d1,...,dk` form: the last entry is the sensitive attribute.
    if (items.size() < 2) {
      *error =
          "schema spec: missing sensitive attribute (use 'qi,...|sa' or list at "
          "least two domains; the last one is the SA)";
      return std::nullopt;
    }
    sa_part = items.back();
    items.pop_back();
  }

  std::vector<Attribute> qi(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    std::string fallback = "Q";
    fallback += std::to_string(i + 1);
    if (!ParseAttribute(items[i], fallback, &qi[i], error)) return std::nullopt;
  }
  Attribute sensitive;
  if (!ParseAttribute(sa_part, "S", &sensitive, error)) return std::nullopt;
  return Schema(std::move(qi), std::move(sensitive));
}

std::string FormatSchemaSpec(const Schema& schema) {
  std::string spec;
  for (std::size_t i = 0; i < schema.qi_count(); ++i) {
    const Attribute& a = schema.qi(static_cast<AttrId>(i));
    if (i > 0) spec += ",";
    spec += a.name + ":" + std::to_string(a.domain_size);
  }
  spec += "|" + schema.sensitive().name + ":" + std::to_string(schema.sensitive().domain_size);
  return spec;
}

}  // namespace ldv
