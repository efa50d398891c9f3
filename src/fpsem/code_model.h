#pragma once

// The code model is the simulated application's symbol table: which source
// files exist, which functions live in each file, which of those are
// globally exported (strong symbols a linker can swap) and which are
// internal (static or always-inlined, reachable only through a host
// symbol).  FLiT Bisect searches over exactly this structure.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace flit::fpsem {

/// Dense index of a registered function within a CodeModel.
using FunctionId = std::uint32_t;

inline constexpr FunctionId kInvalidFunction = ~FunctionId{0};

/// Static metadata for one function of the simulated application.
struct FunctionInfo {
  std::string name;  ///< symbol name, e.g. "Vector::dot"
  std::string file;  ///< owning source file, e.g. "linalg/vector.cpp"

  /// Globally exported strong symbol (replaceable by Symbol Bisect).
  bool exported = true;

  /// For internal functions: the exported symbol through which callers
  /// reach it.  Symbol Bisect reports this host symbol ("indirect find").
  std::string host_symbol;

  /// Calls transcendental libm functions; affected by link-step fast-libm
  /// substitution (the Intel behaviour of Sec. 3.1).
  bool uses_libm = false;

  /// Small and cross-TU inlinable: without -fPIC, replacing its symbol
  /// does not replace the inlined copies, so variability it causes can
  /// vanish or persist when the file is rebuilt for Symbol Bisect.
  bool inline_candidate = false;

  friend bool operator==(const FunctionInfo&, const FunctionInfo&) = default;
};

/// Registry of files and functions making up one simulated application.
class CodeModel {
 public:
  /// Registers a function; names must be unique within the model.
  FunctionId add(FunctionInfo info);

  /// Idempotent add: when a function with the same name is already
  /// registered with an *identical* record, returns its id instead of
  /// throwing -- the registration hook generated-kernel suites use, since
  /// an installer may run more than once per process (CLI dispatch plus a
  /// test fixture, say).  A same-name registration whose metadata differs
  /// is still a hard error: silently keeping the old record would leave
  /// the model disagreeing with the caller about exportedness or libm use.
  FunctionId ensure(FunctionInfo info);

  [[nodiscard]] const FunctionInfo& info(FunctionId id) const {
    return fns_.at(id);
  }
  [[nodiscard]] std::size_t function_count() const { return fns_.size(); }

  /// Looks a function up by symbol name.
  [[nodiscard]] std::optional<FunctionId> find(std::string_view name) const;

  /// All distinct source files, in first-registration order.
  [[nodiscard]] const std::vector<std::string>& files() const {
    return files_;
  }

  /// Position of `file` in files(), or nullopt when no function lives in
  /// it.
  [[nodiscard]] std::optional<std::size_t> file_index(
      std::string_view file) const;

  /// For an internal function: the id of its host symbol, or
  /// kInvalidFunction while no function of that name is registered.
  /// kInvalidFunction for exported functions.
  [[nodiscard]] FunctionId host_of(FunctionId id) const {
    return hosts_.at(id);
  }

  /// All functions defined in `file` (exported and internal).
  [[nodiscard]] std::vector<FunctionId> functions_in(
      std::string_view file) const;

  /// functions_in(files()[file]), by index and without a copy.
  [[nodiscard]] const std::vector<FunctionId>& functions_at(
      std::size_t file) const {
    return file_fns_.at(file);
  }

  /// Exported symbol names defined in `file` -- the Symbol Bisect search
  /// space for that file.
  [[nodiscard]] std::vector<std::string> exported_symbols_of(
      std::string_view file) const;

  /// Functions bound to the variable compilation when the symbol set
  /// `chosen` (exported names from `file`) is taken from the variable
  /// object: the chosen exported functions plus every internal function
  /// whose host symbol is chosen.
  [[nodiscard]] std::vector<FunctionId> functions_covered_by(
      std::string_view file, const std::vector<std::string>& chosen) const;

  [[nodiscard]] double average_functions_per_file() const;

 private:
  /// Transparent string hashing, so string_view lookups do not allocate.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::vector<FunctionInfo> fns_;
  std::vector<FunctionId> hosts_;  ///< host_of(), parallel to fns_
  std::unordered_map<std::string, FunctionId> by_name_;
  /// Internal functions registered before their host, by host name.
  std::unordered_map<std::string, std::vector<FunctionId>> pending_hosts_;
  std::vector<std::string> files_;
  std::vector<std::vector<FunctionId>> file_fns_;  ///< parallel to files_
  std::unordered_map<std::string, std::size_t, NameHash, std::equal_to<>>
      file_ids_;
};

/// The process-wide model that statically-registered application kernels
/// (linalg, mfemini, laghos, lulesh) add themselves to.
CodeModel& global_code_model();

/// Static-initialization helper used by kernel translation units.
FunctionId register_fn(FunctionInfo info);

}  // namespace flit::fpsem
