#include "dns/name.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <stdexcept>

namespace lookaside::dns {

namespace {

char lower(char c) {
  // DNS names are ASCII; branchless A-Z fold beats locale-aware tolower on
  // the million-name construction path.
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c | 0x20) : c;
}

void validate_label(std::string_view label) {
  if (label.empty()) throw std::invalid_argument("empty DNS label");
  if (label.size() > 63) throw std::invalid_argument("DNS label > 63 octets");
}

}  // namespace

Name Name::parse(std::string_view text) {
  return from_text(std::string(text));
}

Name Name::from_text(std::string text) {
  if (!text.empty() && text.back() == '.') text.pop_back();
  Name out;
  if (text.empty()) return out;  // root
  std::size_t labels = 0;
  std::size_t label_start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == '.') {
      validate_label(std::string_view(text).substr(label_start, i - label_start));
      ++labels;
      label_start = i + 1;
    }
  }
  // In-place transform of the owned text; dots survive lower() unchanged.
  out.text_ = std::move(text);
  for (char& c : out.text_) c = lower(c);
  out.hash_ = hash_text(out.text_);
  if (out.wire_length() > 255) {
    throw std::invalid_argument("DNS name > 255 octets");
  }
  // 255 wire octets hold at most 127 labels, so the count fits a byte.
  out.label_count_ = static_cast<std::uint8_t>(labels);
  return out;
}

std::size_t Name::hash_text(std::string_view text) {
  // Empty internal text is the root; it must hash to kRootHash no matter
  // which construction path produced it (see kRootHash in name.h).
  if (text.empty()) return kRootHash;
  // FNV-1a 64.
  std::size_t h = kEmptyHash;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string_view Name::label(std::size_t i) const {
  const std::string_view text = text_;
  std::size_t start = 0;
  for (; i > 0; --i) start = text.find('.', start) + 1;
  const std::size_t end = text.find('.', start);
  return text.substr(start, end == std::string_view::npos ? end : end - start);
}

Name Name::parent() const {
  if (is_root()) throw std::logic_error("root name has no parent");
  if (label_count() == 1) return root();
  Name out;
  out.text_ = text_.substr(text_.find('.') + 1);
  out.hash_ = hash_text(out.text_);
  out.label_count_ = static_cast<std::uint8_t>(label_count_ - 1);
  return out;
}

Name Name::with_prefix_label(std::string_view label) const {
  validate_label(label);
  std::string text;
  text.reserve(label.size() + 1 + text_.size());
  text += label;
  if (!is_root()) {
    text.push_back('.');
    text += text_;
  }
  return from_text(std::move(text));
}

Name Name::concat(const Name& suffix) const {
  if (is_root()) return suffix;
  if (suffix.is_root()) return *this;
  std::string text;
  text.reserve(text_.size() + 1 + suffix.text_.size());
  text += text_;
  text.push_back('.');
  text += suffix.text_;
  return from_text(std::move(text));
}

bool Name::is_subdomain_of(const Name& ancestor) const {
  if (ancestor.is_root()) return true;
  if (ancestor.text_.size() > text_.size()) return false;
  if (ancestor.text_.size() == text_.size()) return text_ == ancestor.text_;
  // Must match a label boundary: "...<dot>ancestor".
  const std::size_t offset = text_.size() - ancestor.text_.size();
  return text_[offset - 1] == '.' &&
         text_.compare(offset, std::string::npos, ancestor.text_) == 0;
}

Name Name::without_suffix(const Name& ancestor) const {
  if (!is_subdomain_of(ancestor)) {
    throw std::invalid_argument("without_suffix: not a subdomain");
  }
  if (ancestor.is_root()) return *this;
  if (text_.size() == ancestor.text_.size()) return root();
  return from_text(text_.substr(0, text_.size() - ancestor.text_.size() - 1));
}

int Name::canonical_compare(const Name& other) const {
  // RFC 4034 §6.1: label sequences compare right to left, each label as
  // unsigned bytes (already lowercase), absent labels first. Two names
  // agree on every label inside their common byte tail, so only one label
  // pair needs comparing: the one holding the last differing byte.
  const std::size_t na = text_.size();
  const std::size_t nb = other.text_.size();
  if (na == 0 || nb == 0) return na == nb ? 0 : (na == 0 ? -1 : 1);
  const char* a = text_.data();
  const char* b = other.text_.data();
  const std::size_t shorter = std::min(na, nb);
  std::size_t tail = 0;  // length of the common byte suffix
  while (tail + 8 <= shorter) {
    std::uint64_t wa;
    std::uint64_t wb;
    std::memcpy(&wa, a + na - tail - 8, 8);
    std::memcpy(&wb, b + nb - tail - 8, 8);
    if (wa != wb) break;
    tail += 8;
  }
  while (tail < shorter && a[na - tail - 1] == b[nb - tail - 1]) ++tail;
  if (tail == na || tail == nb) {
    if (na == nb) return 0;
    // One text is a byte suffix of the other: a label-boundary suffix is
    // an ancestor, which sorts first.
    if (tail == na && b[nb - tail - 1] == '.') return -1;
    if (tail == nb && a[na - tail - 1] == '.') return 1;
  }
  // The differing labels end at the leftmost dot inside the common tail
  // (every label right of it is equal), or at the end of both texts.
  const auto* dot =
      static_cast<const char*>(std::memchr(a + na - tail, '.', tail));
  const std::size_t equal_suffix =
      dot == nullptr ? 0 : static_cast<std::size_t>(a + na - dot);
  // Each differing label starts after the last dot before the common tail.
  const auto label_start = [tail](const char* text, std::size_t size) {
    const auto* prev =
        static_cast<const char*>(memrchr(text, '.', size - tail));
    return prev == nullptr ? std::size_t{0}
                           : static_cast<std::size_t>(prev - text) + 1;
  };
  const std::size_t sa = label_start(a, na);
  const std::size_t sb = label_start(b, nb);
  const std::size_t la = na - equal_suffix - sa;
  const std::size_t lb = nb - equal_suffix - sb;
  const int cmp = std::memcmp(a + sa, b + sb, std::min(la, lb));
  if (cmp != 0) return cmp < 0 ? -1 : 1;
  return la == lb ? 0 : (la < lb ? -1 : 1);
}

std::string Name::to_text() const {
  if (is_root()) return ".";
  return text_ + ".";
}

Bytes Name::to_wire() const {
  Bytes out;
  out.reserve(wire_length());
  const std::string_view text = text_;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t dot = std::min(text.find('.', start), text.size());
    out.push_back(static_cast<std::uint8_t>(dot - start));
    out.insert(out.end(), text.begin() + static_cast<std::ptrdiff_t>(start),
               text.begin() + static_cast<std::ptrdiff_t>(dot));
    start = dot + 1;
  }
  out.push_back(0);
  return out;
}

std::size_t Name::wire_length() const {
  // One length octet per label + label bytes + terminating root octet.
  return is_root() ? 1 : text_.size() + 2;
}

}  // namespace lookaside::dns
