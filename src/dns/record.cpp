#include "dns/record.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "crypto/bytes.h"

namespace lookaside::dns {

ResourceRecord ResourceRecord::make(Name name, std::uint32_t ttl, Rdata rdata) {
  ResourceRecord out;
  out.name = std::move(name);
  out.type = rdata_type(rdata);
  out.ttl = ttl;
  out.rdata = std::move(rdata);
  return out;
}

ResourceRecord ResourceRecord::make_typed(Name name, RRType type,
                                          std::uint32_t ttl, Rdata rdata) {
  ResourceRecord out;
  out.name = std::move(name);
  out.type = type;
  out.ttl = ttl;
  out.rdata = std::move(rdata);
  return out;
}

std::string ResourceRecord::to_text() const {
  // RFC 3597 §5: a class without a mnemonic prints as CLASS<n>.
  const std::string class_text =
      rr_class == RRClass::kIn
          ? "IN"
          : "CLASS" + std::to_string(static_cast<std::uint16_t>(rr_class));
  std::string out = name.to_text() + " " + std::to_string(ttl) + " " +
                    class_text + " " + rr_type_name(type);
  if (const auto* a = std::get_if<ARdata>(&rdata)) {
    out += " " + a->to_text();
  } else if (const auto* aaaa = std::get_if<AaaaRdata>(&rdata)) {
    out += " " + aaaa->to_text();
  } else if (const auto* ns = std::get_if<NsRdata>(&rdata)) {
    out += " " + ns->nameserver.to_text();
  } else if (const auto* cname = std::get_if<CnameRdata>(&rdata)) {
    out += " " + cname->target.to_text();
  } else if (const auto* ptr = std::get_if<PtrRdata>(&rdata)) {
    out += " " + ptr->target.to_text();
  } else if (const auto* mx = std::get_if<MxRdata>(&rdata)) {
    out += " " + std::to_string(mx->preference) + " " + mx->exchanger.to_text();
  } else if (const auto* txt = std::get_if<TxtRdata>(&rdata)) {
    for (const auto& s : txt->strings) out += " \"" + s + "\"";
  } else if (const auto* nsec = std::get_if<NsecRdata>(&rdata)) {
    out += " " + nsec->next.to_text();
    for (RRType t : nsec->types) out += " " + rr_type_name(t);
  } else if (const auto* ds = std::get_if<DsRdata>(&rdata)) {
    out += " " + std::to_string(ds->key_tag) + " " +
           std::to_string(ds->algorithm) + " " +
           std::to_string(ds->digest_type) + " " + crypto::to_hex(ds->digest);
  } else if (const auto* sig = std::get_if<RrsigRdata>(&rdata)) {
    out += " covers=" + rr_type_name(sig->type_covered) +
           " signer=" + sig->signer.to_text() +
           " tag=" + std::to_string(sig->key_tag);
  } else if (const auto* key = std::get_if<DnskeyRdata>(&rdata)) {
    out += " flags=" + std::to_string(key->flags) +
           " alg=" + std::to_string(key->algorithm) +
           " tag=" + std::to_string(key->key_tag());
  }
  return out;
}

void RRset::add(ResourceRecord record) {
  if (!has_identity_) {
    // Default-constructed set adopts the first record's identity.
    name_ = record.name;
    type_ = record.type;
    has_identity_ = true;
  }
  if (record.name != name_ || record.type != type_) {
    throw std::invalid_argument("RRset member (name, type) mismatch");
  }
  records_.push_back(std::move(record));
}

Bytes canonical_rrset_image(const RRset& rrset, std::uint32_t original_ttl) {
  // Encode each record's RDATA once, then sort the encodings (RFC 4034
  // canonical RR ordering is by RDATA as a left-justified octet sequence).
  // Each record keeps its own CLASS (RFC 4034 §6.2, RFC 4035 §5.3.1): a
  // rewritten class must change the signed image, not slip past it.
  std::vector<std::pair<Bytes, RRClass>> rdata_images;
  rdata_images.reserve(rrset.size());
  for (const ResourceRecord& record : rrset.records()) {
    ByteWriter writer;
    encode_rdata(record.rdata, writer);
    rdata_images.emplace_back(writer.take(), record.rr_class);
  }
  std::sort(rdata_images.begin(), rdata_images.end());

  ByteWriter out;
  const Bytes owner_wire = rrset.name().to_wire();
  for (const auto& [image, rr_class] : rdata_images) {
    out.raw(owner_wire);
    out.u16(static_cast<std::uint16_t>(rrset.type()));
    out.u16(static_cast<std::uint16_t>(rr_class));
    out.u32(original_ttl);
    out.u16(static_cast<std::uint16_t>(image.size()));
    out.raw(image);
  }
  return out.take();
}

Bytes rrsig_signed_data(const RrsigRdata& rrsig_fields, const RRset& rrset) {
  ByteWriter out;
  out.u16(static_cast<std::uint16_t>(rrsig_fields.type_covered));
  out.u8(rrsig_fields.algorithm);
  out.u8(rrsig_fields.labels);
  out.u32(rrsig_fields.original_ttl);
  out.u32(rrsig_fields.expiration);
  out.u32(rrsig_fields.inception);
  out.u16(rrsig_fields.key_tag);
  out.raw(rrsig_fields.signer.to_wire());
  out.raw(canonical_rrset_image(rrset, rrsig_fields.original_ttl));
  return out.take();
}

}  // namespace lookaside::dns
