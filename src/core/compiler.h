#ifndef HETEX_CORE_COMPILER_H_
#define HETEX_CORE_COMPILER_H_

// The query compiler lives in plan/compiler.h; this name stays for code that
// still spells core::QueryCompiler.
#include "plan/compiler.h"

namespace hetex::core {
using plan::QueryCompiler;
}  // namespace hetex::core

#endif  // HETEX_CORE_COMPILER_H_
