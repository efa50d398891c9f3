#include "fpsem/code_model.h"

#include <algorithm>
#include <stdexcept>

namespace flit::fpsem {

FunctionId CodeModel::add(FunctionInfo info) {
  if (info.name.empty() || info.file.empty()) {
    throw std::invalid_argument("FunctionInfo requires name and file");
  }
  if (by_name_.contains(info.name)) {
    throw std::invalid_argument("duplicate function name: " + info.name);
  }
  if (!info.exported && info.host_symbol.empty()) {
    throw std::invalid_argument("internal function '" + info.name +
                                "' needs a host_symbol");
  }
  const auto id = static_cast<FunctionId>(fns_.size());
  by_name_.emplace(info.name, id);
  const auto [it, inserted] = file_ids_.try_emplace(info.file, files_.size());
  if (inserted) {
    files_.push_back(info.file);
    file_fns_.emplace_back();
  }
  file_fns_[it->second].push_back(id);

  // Host ids resolve in either registration order.
  hosts_.push_back(kInvalidFunction);
  if (!info.exported) {
    if (const auto host = by_name_.find(info.host_symbol);
        host != by_name_.end()) {
      hosts_[id] = host->second;
    } else {
      pending_hosts_[info.host_symbol].push_back(id);
    }
  }
  if (const auto waiting = pending_hosts_.find(info.name);
      waiting != pending_hosts_.end()) {
    for (const FunctionId internal : waiting->second) hosts_[internal] = id;
    pending_hosts_.erase(waiting);
  }
  fns_.push_back(std::move(info));
  return id;
}

FunctionId CodeModel::ensure(FunctionInfo info) {
  const auto it = by_name_.find(info.name);
  if (it == by_name_.end()) return add(std::move(info));
  if (fns_[it->second] != info) {
    throw std::invalid_argument("conflicting re-registration of function '" +
                                info.name + "'");
  }
  return it->second;
}

std::optional<FunctionId> CodeModel::find(std::string_view name) const {
  auto it = by_name_.find(std::string(name));
  if (it == by_name_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::size_t> CodeModel::file_index(std::string_view file) const {
  const auto it = file_ids_.find(file);
  if (it == file_ids_.end()) return std::nullopt;
  return it->second;
}

std::vector<FunctionId> CodeModel::functions_in(std::string_view file) const {
  const std::optional<std::size_t> f = file_index(file);
  if (!f.has_value()) return {};
  return file_fns_[*f];
}

std::vector<std::string> CodeModel::exported_symbols_of(
    std::string_view file) const {
  std::vector<std::string> out;
  for (FunctionId id : functions_in(file)) {
    if (fns_[id].exported) out.push_back(fns_[id].name);
  }
  return out;
}

std::vector<FunctionId> CodeModel::functions_covered_by(
    std::string_view file, const std::vector<std::string>& chosen) const {
  std::vector<FunctionId> out;
  const auto is_chosen = [&](const std::string& sym) {
    return std::find(chosen.begin(), chosen.end(), sym) != chosen.end();
  };
  for (FunctionId id : functions_in(file)) {
    const FunctionInfo& fi = fns_[id];
    if (fi.exported ? is_chosen(fi.name) : is_chosen(fi.host_symbol)) {
      out.push_back(id);
    }
  }
  return out;
}

double CodeModel::average_functions_per_file() const {
  if (files_.empty()) return 0.0;
  return static_cast<double>(fns_.size()) / static_cast<double>(files_.size());
}

CodeModel& global_code_model() {
  static CodeModel model;
  return model;
}

FunctionId register_fn(FunctionInfo info) {
  return global_code_model().add(std::move(info));
}

}  // namespace flit::fpsem
