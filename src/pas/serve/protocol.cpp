#include "pas/serve/protocol.hpp"

#include <sstream>

#include "pas/analysis/run_cache.hpp"

namespace pas::serve {

std::string error_line(const std::string& message) {
  util::Json j = util::Json::object();
  j.set("ok", util::Json(false));
  j.set("error", util::Json(message));
  return j.dump() + "\n";
}

std::string ok_line(const std::string& op) {
  util::Json j = util::Json::object();
  j.set("ok", util::Json(true));
  j.set("op", util::Json(op));
  return j.dump() + "\n";
}

std::string encode_point_line(std::size_t index,
                              const analysis::RunRecord& record,
                              bool from_cache) {
  util::Json j = util::Json::object();
  j.set("point", util::Json(static_cast<double>(index)));
  j.set("nodes", util::Json(record.nodes));
  j.set("frequency_mhz", util::Json(record.frequency_mhz));
  j.set("status",
        util::Json(std::string(analysis::run_status_name(record.status))));
  j.set("from_cache", util::Json(from_cache));
  j.set("seconds", util::Json(record.seconds));
  j.set("record", util::Json(cas_encode_record(record)));
  return j.dump() + "\n";
}

bool decode_point_line(const util::Json& line, PointLine* out) {
  if (!line.is_object()) return false;
  const util::Json* point = line.find("point");
  const util::Json* from_cache = line.find("from_cache");
  const util::Json* record = line.find("record");
  if (point == nullptr || !point->is_number() || point->as_number() < 0)
    return false;
  if (from_cache == nullptr || !from_cache->is_bool()) return false;
  if (record == nullptr || !record->is_string()) return false;
  analysis::RunRecord rec;
  if (!cas_decode_record(record->as_string(), &rec)) return false;
  out->index = static_cast<std::size_t>(point->as_number());
  out->from_cache = from_cache->as_bool();
  out->record = std::move(rec);
  return true;
}

std::string cas_encode_record(const analysis::RunRecord& record) {
  std::ostringstream out;
  out << "status " << static_cast<int>(record.status) << '\n';
  // Length-prefixed raw bytes, exactly like the journal frame: the
  // error text of a failed run is free-form.
  out << "error " << record.error.size() << '\n' << record.error << '\n';
  out << analysis::RunCache::encode_record(record);
  return out.str();
}

bool cas_decode_record(const std::string& payload,
                       analysis::RunRecord* record) {
  std::istringstream in(payload);
  std::string word;
  long status = 0;
  if (!(in >> word >> status) || word != "status" || status < 0 ||
      status > static_cast<long>(analysis::RunStatus::kCrashed))
    return false;
  if (in.get() != '\n') return false;
  std::size_t err_len = 0;
  if (!(in >> word >> err_len) || word != "error" ||
      err_len > payload.size())
    return false;
  if (in.get() != '\n') return false;
  std::string error(err_len, '\0');
  if (err_len > 0 &&
      !in.read(error.data(), static_cast<std::streamsize>(err_len)))
    return false;
  if (in.get() != '\n') return false;
  if (!analysis::RunCache::decode_record(in, record)) return false;
  record->status = static_cast<analysis::RunStatus>(status);
  record->error = std::move(error);
  return true;
}

}  // namespace pas::serve
