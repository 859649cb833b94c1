#include "geo/whois.hpp"

#include <algorithm>

namespace msim {

void WhoisDb::add(WhoisRecord record) {
  records_.push_back(std::move(record));
  std::stable_sort(records_.begin(), records_.end(),
                   [](const WhoisRecord& a, const WhoisRecord& b) {
                     return a.prefixLen > b.prefixLen;
                   });
}

std::optional<WhoisRecord> WhoisDb::lookup(Ipv4Address addr) const {
  for (const auto& rec : records_) {
    if (addr.inPrefix(rec.prefix, rec.prefixLen)) return rec;
  }
  return std::nullopt;
}

std::string WhoisDb::ownerOf(Ipv4Address addr) const {
  const auto rec = lookup(addr);
  return rec ? rec->owner : "unknown";
}

std::string WhoisDb::geolocate(Ipv4Address addr) const {
  const auto rec = lookup(addr);
  if (!rec || rec->anycastBlock) return "-";
  return rec->geoRegionName.empty() ? "-" : rec->geoRegionName;
}

namespace addrplan {

WhoisDb defaultWhois() {
  WhoisDb db;
  // Sub-blocks carry the region in the third octet:
  // x.y.1.* us-east, x.y.2.* us-west, x.y.3.* europe, x.y.9.* anycast.
  struct ProviderPlan {
    Ipv4Address block;
    const char* owner;
  };
  const ProviderPlan providers[] = {
      {kMicrosoftBlock, "Microsoft"}, {kMetaBlock, "Meta"},
      {kAwsBlock, "AWS"},             {kCloudflareBlock, "Cloudflare"},
      {kAnsBlock, "ANS"},
  };
  const std::pair<int, const char*> regionsByOctet[] = {
      {1, "us-east"}, {2, "us-west"}, {3, "europe"}};
  for (const auto& p : providers) {
    const std::uint32_t base = p.block.value();
    for (const auto& [octet, regionName] : regionsByOctet) {
      db.add(WhoisRecord{Ipv4Address{base | static_cast<std::uint32_t>(octet << 8)},
                         24, p.owner, regionName, false});
    }
    db.add(WhoisRecord{Ipv4Address{base | (9u << 8)}, 24, p.owner, "", true});
    db.add(WhoisRecord{p.block, 16, p.owner, "", false});
  }
  db.add(WhoisRecord{kCampusBlock, 8, "Campus", "us-east", false});
  db.add(WhoisRecord{kCoreBlock, 16, "Transit", "", false});
  return db;
}

}  // namespace addrplan

}  // namespace msim
