#pragma once

// objcopy emulation: rewriting symbol strength inside an object file.
//
// Symbol Bisect duplicates an object file and turns a chosen subset of its
// strong symbols weak (and the complement weak in the other copy), so the
// linker's strong-beats-weak rule selects functions from the two
// compilations (Sec. 2.3, Fig. 3 right).

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "toolchain/object.h"

namespace flit::toolchain {

/// objcopy into a reused copy: rewrites the symbol strengths of `dst`, a
/// copy of `src`, to `src`'s with every symbol named in `to_weaken` marked
/// weak.  Names not defined by the object are ignored, matching
/// `objcopy --weaken-symbol` behaviour.  Symbol Bisect re-weakens one copy
/// per probe this way instead of copying the object.
inline void objcopy_weaken_into(ObjectFile& dst, const ObjectFile& src,
                                const std::vector<std::string>& to_weaken) {
  for (std::size_t k = 0; k < src.symbols.size(); ++k) {
    const SymbolDef& s = src.symbols[k];
    dst.symbols[k].strong =
        s.strong && std::find(to_weaken.begin(), to_weaken.end(), s.name) ==
                        to_weaken.end();
  }
}

/// objcopy_weaken_into's complement (Fig. 3): every symbol *except*
/// those named in `keep_strong` is marked weak.
inline void objcopy_weaken_complement_into(
    ObjectFile& dst, const ObjectFile& src,
    const std::vector<std::string>& keep_strong) {
  for (std::size_t k = 0; k < src.symbols.size(); ++k) {
    const SymbolDef& s = src.symbols[k];
    dst.symbols[k].strong =
        s.strong && std::find(keep_strong.begin(), keep_strong.end(),
                              s.name) != keep_strong.end();
  }
}

/// Returns a copy of `obj` with every symbol named in `to_weaken` marked
/// weak.
[[nodiscard]] inline ObjectFile objcopy_weaken(
    ObjectFile obj, const std::vector<std::string>& to_weaken) {
  objcopy_weaken_into(obj, obj, to_weaken);
  return obj;
}

/// Returns a copy of `obj` with every symbol *except* those named in
/// `keep_strong` marked weak (the complement-set operation of Fig. 3).
[[nodiscard]] inline ObjectFile objcopy_weaken_complement(
    ObjectFile obj, const std::vector<std::string>& keep_strong) {
  objcopy_weaken_complement_into(obj, obj, keep_strong);
  return obj;
}

}  // namespace flit::toolchain
