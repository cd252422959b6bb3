# knob_table: the environment is read in one place, and documented in one.
#
# Fails when getenv or a GetEnv* helper appears in any .cpp/.h under src/,
# bench/ (bench/e2e/ excepted: it scrubs REJECTO_* and reads none),
# examples/ or tests/ other than src/util/flags.cpp, or when the REJECTO_*
# names flags.cpp reads differ from the rows of README's "Environment knobs"
# table.
#
#   cmake -DROOT=<repo root> -P tests/knob_table.cmake
if(NOT ROOT)
  message(FATAL_ERROR "knob_table: pass -DROOT=<repo root>")
endif()

set(failures "")

file(GLOB_RECURSE sources RELATIVE "${ROOT}"
  "${ROOT}/src/*.cpp" "${ROOT}/src/*.h"
  "${ROOT}/bench/*.cpp" "${ROOT}/bench/*.h"
  "${ROOT}/examples/*.cpp" "${ROOT}/examples/*.h"
  "${ROOT}/tests/*.cpp" "${ROOT}/tests/*.h")
foreach(f IN LISTS sources)
  if(f STREQUAL "src/util/flags.cpp" OR f MATCHES "^bench/e2e/")
    continue()
  endif()
  file(STRINGS "${ROOT}/${f}" hits REGEX "getenv|GetEnv")
  if(hits)
    string(APPEND failures "\n  ${f} reads the environment: ${hits}")
  endif()
endforeach()

file(READ "${ROOT}/src/util/flags.cpp" flags_src)
string(REGEX MATCHALL "\"REJECTO_[A-Z0-9_]+\"" read "${flags_src}")
string(REPLACE "\"" "" read "${read}")
list(REMOVE_DUPLICATES read)
list(SORT read)

file(STRINGS "${ROOT}/README.md" rows REGEX "^\\| `REJECTO_[A-Z0-9_]+`")
set(documented "")
foreach(row IN LISTS rows)
  string(REGEX MATCH "REJECTO_[A-Z0-9_]+" name "${row}")
  list(APPEND documented "${name}")
endforeach()
list(SORT documented)

if(NOT read)
  string(APPEND failures "\n  src/util/flags.cpp reads no REJECTO_* name")
elseif(NOT read STREQUAL documented)
  string(APPEND failures "\n  flags.cpp reads:   ${read}"
                         "\n  README table rows: ${documented}")
endif()

if(failures)
  message(FATAL_ERROR "knob_table:${failures}")
endif()
list(LENGTH read count)
message(STATUS "knob_table: ${count} knobs, all read in src/util/flags.cpp")
