#include "dns/codec.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace lookaside::dns {

namespace {

constexpr std::uint16_t kPointerMask = 0xC000;
constexpr std::size_t kMaxPointerOffset = 0x3FFF;
constexpr std::size_t kMaxPointerJumps = 64;  // loop guard when decoding

/// Compression targets written so far: each suffix a later name may point
/// at, as a view into the text of the name that wrote it (the message being
/// encoded owns those names and outlives the table) plus its packet offset.
/// A linear scan beats hashing at DNS message sizes, and the first few
/// dozen entries live on the stack, so a typical message costs no heap.
class CompressionTable {
 public:
  static constexpr std::size_t kNotFound = static_cast<std::size_t>(-1);

  /// Offset where `suffix` was first written, or kNotFound.
  [[nodiscard]] std::size_t find(std::string_view suffix) const {
    for (std::size_t i = 0; i < size_; ++i) {
      const Entry& entry = at(i);
      if (entry.length == suffix.size() &&
          std::memcmp(entry.text, suffix.data(), suffix.size()) == 0) {
        return entry.offset;
      }
    }
    return kNotFound;
  }

  void add(std::string_view suffix, std::size_t offset) {
    const Entry entry{suffix.data(), static_cast<std::uint16_t>(suffix.size()),
                      static_cast<std::uint16_t>(offset)};
    if (size_ < kInline) {
      inline_[size_] = entry;
    } else {
      overflow_.push_back(entry);
    }
    ++size_;
  }

 private:
  struct Entry {
    const char* text;
    std::uint16_t length;
    std::uint16_t offset;
  };
  static constexpr std::size_t kInline = 64;

  [[nodiscard]] const Entry& at(std::size_t i) const {
    return i < kInline ? inline_[i] : overflow_[i - kInline];
  }

  std::array<Entry, kInline> inline_;
  std::vector<Entry> overflow_;
  std::size_t size_ = 0;
};

/// Writes `name` with compression against previously written names: the
/// longest suffix already in `table` becomes a pointer, and every suffix
/// written in full before offset 0x3FFF becomes a later pointer target.
template <typename Sink>
void encode_compressed_name(const Name& name, Sink& sink,
                            CompressionTable& table) {
  const std::string_view text = name.internal_text();
  std::size_t start = 0;
  while (start < text.size()) {
    const std::string_view suffix = text.substr(start);
    const std::size_t target = table.find(suffix);
    if (target != CompressionTable::kNotFound) {
      sink.u16(static_cast<std::uint16_t>(kPointerMask | target));
      return;
    }
    if (sink.size() <= kMaxPointerOffset) table.add(suffix, sink.size());
    const std::size_t dot = std::min(suffix.find('.'), suffix.size());
    encode_label(suffix.substr(0, dot), sink);
    start += dot + 1;
  }
  sink.u8(0);
}

template <typename Sink>
void encode_record(const ResourceRecord& record, Sink& sink,
                   CompressionTable& table) {
  encode_compressed_name(record.name, sink, table);
  sink.u16(static_cast<std::uint16_t>(record.type));
  if (const auto* opt = std::get_if<OptRdata>(&record.rdata)) {
    // OPT smuggles its fields into CLASS and TTL (RFC 6891).
    sink.u16(opt->udp_payload_size);
    sink.u32(opt->dnssec_ok ? 0x00008000u : 0u);
    sink.u16(0);  // empty RDATA
    return;
  }
  sink.u16(static_cast<std::uint16_t>(record.rr_class));
  sink.u32(record.ttl);
  const std::size_t rdlength_offset = sink.size();
  sink.u16(0);  // patched below
  encode_rdata(record.rdata, sink);
  sink.patch_u16(rdlength_offset, static_cast<std::uint16_t>(
                                      sink.size() - rdlength_offset - 2));
}

/// The one message encoder, for bytes (ByteWriter) and sizes (SizeCounter).
template <typename Sink>
void encode_message_to(const Message& message, Sink& sink) {
  CompressionTable table;

  sink.u16(message.header.id);
  std::uint16_t flags = 0;
  if (message.header.qr) flags |= 0x8000;
  flags |= static_cast<std::uint16_t>((message.header.opcode & 0x0F) << 11);
  if (message.header.aa) flags |= 0x0400;
  if (message.header.tc) flags |= 0x0200;
  if (message.header.rd) flags |= 0x0100;
  if (message.header.ra) flags |= 0x0080;
  if (message.header.z) flags |= 0x0040;
  if (message.header.ad) flags |= 0x0020;
  if (message.header.cd) flags |= 0x0010;
  flags |= static_cast<std::uint16_t>(message.header.rcode) & 0x0F;
  sink.u16(flags);

  sink.u16(static_cast<std::uint16_t>(message.questions.size()));
  sink.u16(static_cast<std::uint16_t>(message.answers.size()));
  sink.u16(static_cast<std::uint16_t>(message.authorities.size()));
  const std::size_t additional_count =
      message.additionals.size() + (message.edns ? 1 : 0);
  sink.u16(static_cast<std::uint16_t>(additional_count));

  for (const Question& question : message.questions) {
    encode_compressed_name(question.name, sink, table);
    sink.u16(static_cast<std::uint16_t>(question.type));
    sink.u16(static_cast<std::uint16_t>(question.rr_class));
  }
  for (const ResourceRecord& record : message.answers) {
    encode_record(record, sink, table);
  }
  for (const ResourceRecord& record : message.authorities) {
    encode_record(record, sink, table);
  }
  for (const ResourceRecord& record : message.additionals) {
    encode_record(record, sink, table);
  }
  if (message.edns) {
    // The OPT pseudo-record: root owner (one zero octet), TYPE, then the
    // payload size in CLASS, the DO bit in TTL and an empty RDATA.
    sink.u8(0);
    sink.u16(static_cast<std::uint16_t>(RRType::kOpt));
    sink.u16(message.udp_payload_size);
    sink.u32(message.dnssec_ok ? 0x00008000u : 0u);
    sink.u16(0);
  }
}

Name decode_compressed_name(ByteReader& reader) {
  std::string text;
  std::size_t jumps = 0;
  std::size_t return_position = 0;
  bool jumped = false;
  for (;;) {
    const std::uint8_t len = reader.u8();
    if (len == 0) break;
    if ((len & 0xC0) == 0xC0) {
      if (++jumps > kMaxPointerJumps) {
        throw WireFormatError("compression pointer loop");
      }
      const std::size_t offset =
          (static_cast<std::size_t>(len & 0x3F) << 8) | reader.u8();
      if (!jumped) {
        return_position = reader.position();
        jumped = true;
      }
      if (offset >= reader.position()) {
        throw WireFormatError("forward compression pointer");
      }
      reader.seek(offset);
      continue;
    }
    if (len > 63) throw WireFormatError("bad label length");
    const Bytes label = reader.raw(len);
    if (!text.empty()) text.push_back('.');
    text.append(label.begin(), label.end());
  }
  if (jumped) reader.seek(return_position);
  return Name::parse(text);
}

ResourceRecord decode_record(ByteReader& reader, Message& message) {
  ResourceRecord record;
  record.name = decode_compressed_name(reader);
  record.type = static_cast<RRType>(reader.u16());
  if (record.type == RRType::kOpt) {
    OptRdata opt;
    opt.udp_payload_size = reader.u16();
    const std::uint32_t ttl = reader.u32();
    opt.dnssec_ok = (ttl & 0x8000u) != 0;
    const std::uint16_t rdlength = reader.u16();
    (void)reader.raw(rdlength);
    record.rr_class = RRClass::kIn;
    record.ttl = ttl;
    record.rdata = opt;
    message.edns = true;
    message.udp_payload_size = opt.udp_payload_size;
    message.dnssec_ok = opt.dnssec_ok;
    return record;
  }
  record.rr_class = static_cast<RRClass>(reader.u16());
  record.ttl = reader.u32();
  const std::uint16_t rdlength = reader.u16();
  record.rdata = decode_rdata(record.type, rdlength, reader);
  return record;
}

}  // namespace

Bytes encode_message(const Message& message) {
  ByteWriter writer;
  // One allocation for a classic UDP-sized message; larger ones grow.
  writer.reserve(512);
  encode_message_to(message, writer);
  return writer.take();
}

Message decode_message(const Bytes& wire) {
  ByteReader reader(wire);
  Message message;

  message.header.id = reader.u16();
  const std::uint16_t flags = reader.u16();
  message.header.qr = flags & 0x8000;
  message.header.opcode = static_cast<std::uint8_t>((flags >> 11) & 0x0F);
  message.header.aa = flags & 0x0400;
  message.header.tc = flags & 0x0200;
  message.header.rd = flags & 0x0100;
  message.header.ra = flags & 0x0080;
  message.header.z = flags & 0x0040;
  message.header.ad = flags & 0x0020;
  message.header.cd = flags & 0x0010;
  message.header.rcode = static_cast<RCode>(flags & 0x0F);

  const std::uint16_t qdcount = reader.u16();
  const std::uint16_t ancount = reader.u16();
  const std::uint16_t nscount = reader.u16();
  const std::uint16_t arcount = reader.u16();

  // Real DNS messages carry zero or one question. A forged QDCOUNT above
  // that would make the loop below consume record bytes as phantom
  // questions — reading past the actual question section — so reject it
  // before touching the sections (the serving frontend decodes untrusted
  // wire bytes on every request).
  if (qdcount > 1) {
    throw WireFormatError("QDCOUNT disagrees with question section");
  }

  for (std::uint16_t i = 0; i < qdcount; ++i) {
    Question question;
    question.name = decode_compressed_name(reader);
    question.type = static_cast<RRType>(reader.u16());
    question.rr_class = static_cast<RRClass>(reader.u16());
    message.questions.push_back(std::move(question));
  }
  for (std::uint16_t i = 0; i < ancount; ++i) {
    message.answers.push_back(decode_record(reader, message));
  }
  for (std::uint16_t i = 0; i < nscount; ++i) {
    message.authorities.push_back(decode_record(reader, message));
  }
  for (std::uint16_t i = 0; i < arcount; ++i) {
    ResourceRecord record = decode_record(reader, message);
    if (record.type != RRType::kOpt) {
      message.additionals.push_back(std::move(record));
    }
  }
  if (!reader.done()) throw WireFormatError("trailing bytes after message");
  return message;
}

std::size_t wire_size(const Message& message) {
  SizeCounter counter;
  encode_message_to(message, counter);
  return counter.size();
}

}  // namespace lookaside::dns
