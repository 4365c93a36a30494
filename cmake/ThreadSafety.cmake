# Clang thread-safety enforcement (DESIGN.md §17).
#
# Under Clang this module
#   1. adds -Wthread-safety -Werror=thread-safety to the shared warning
#      interface, so every annotated structure in the tree is checked at
#      compile time, and
#   2. proves the annotations are load-bearing with a try_compile pair:
#      a negative probe that reads a GUARDED_BY member without its
#      util::Mutex (must FAIL to build) and a positive twin that takes the
#      lock first (must build). Each probe declares its own small struct,
#      so no product class needs a friend seam. If the negative probe
#      compiles, the analysis is not actually running — the configure step
#      aborts rather than let CI report a vacuously green thread-safety
#      job.
#
# Under GCC (which has no thread-safety analysis) the annotation macros
# expand to nothing and this module is a silent no-op; the CI
# clang-thread-safety job is where enforcement actually happens.
#
# Gate: -DDREAMSIM_THREAD_SAFETY=ON (default ON; only acts under Clang).

if(NOT CMAKE_CXX_COMPILER_ID MATCHES "Clang")
  message(STATUS "dreamsim: thread-safety analysis skipped (needs Clang, "
                 "have ${CMAKE_CXX_COMPILER_ID})")
  return()
endif()

target_compile_options(dreamsim_warnings INTERFACE
  -Wthread-safety
  -Werror=thread-safety
)
message(STATUS "dreamsim: -Werror=thread-safety enabled")

# --- Non-vacuity probes ----------------------------------------------------
# STATIC_LIBRARY keeps try_compile from linking (the probes define no
# main).
set(CMAKE_TRY_COMPILE_TARGET_TYPE STATIC_LIBRARY)

set(_dreamsim_tsa_flags
  "-DCMAKE_CXX_STANDARD=${CMAKE_CXX_STANDARD}"
  "-DCMAKE_CXX_STANDARD_REQUIRED=ON"
  "-DINCLUDE_DIRECTORIES=${CMAKE_CURRENT_SOURCE_DIR}/src"
  "-DCOMPILE_DEFINITIONS=-Wthread-safety -Werror=thread-safety"
)

try_compile(DREAMSIM_TSA_POSITIVE_BUILDS
  ${CMAKE_BINARY_DIR}/tsa_probe_positive
  ${CMAKE_CURRENT_SOURCE_DIR}/tests/tsa_probe/tsa_positive.cpp
  CMAKE_FLAGS ${_dreamsim_tsa_flags}
  OUTPUT_VARIABLE _dreamsim_tsa_positive_log
)
if(NOT DREAMSIM_TSA_POSITIVE_BUILDS)
  message(FATAL_ERROR
    "dreamsim: the positive thread-safety probe failed to compile, so the "
    "negative probe below would fail for the wrong reason. Build log:\n"
    "${_dreamsim_tsa_positive_log}")
endif()

try_compile(DREAMSIM_TSA_NEGATIVE_BUILDS
  ${CMAKE_BINARY_DIR}/tsa_probe_negative
  ${CMAKE_CURRENT_SOURCE_DIR}/tests/tsa_probe/tsa_negative.cpp
  CMAKE_FLAGS ${_dreamsim_tsa_flags}
  OUTPUT_VARIABLE _dreamsim_tsa_negative_log
)
if(DREAMSIM_TSA_NEGATIVE_BUILDS)
  message(FATAL_ERROR
    "dreamsim: the negative thread-safety probe COMPILED — an unguarded "
    "read of a GUARDED_BY member passed -Werror=thread-safety, so the "
    "annotations are vacuous (shim expanding to nothing, or the analysis "
    "not running). Refusing to configure a green-but-unchecked build.")
endif()
message(STATUS
  "dreamsim: thread-safety probes ok (mis-locked access rejected, "
  "well-locked twin accepted)")

unset(CMAKE_TRY_COMPILE_TARGET_TYPE)
