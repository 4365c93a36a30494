# Fails unless every violation slug the StructureAuditor reports has a
# corruption test that expects exactly that slug (DESIGN.md §12.1):
#   cmake -DAUDITOR=src/analysis/structure_auditor.cpp \
#         -DTESTS=tests/test_structure_auditor.cpp \
#         -P auditor_slug_coverage.cmake
#
# A slug is a string literal of the form "family.name" in the auditor
# source. A test covers it when the test file expects exactly that one
# slug: std::set<std::string>{"family.name"}.

file(READ "${AUDITOR}" auditor)
string(REGEX MATCHALL "\"[a-z0-9]+\\.[a-z0-9-]+\"" reported "${auditor}")
string(REPLACE "\"" "" reported "${reported}")
list(REMOVE_DUPLICATES reported)
list(SORT reported)
list(LENGTH reported count)
if(count EQUAL 0)
  message(FATAL_ERROR "no slugs found in ${AUDITOR}")
endif()

file(READ "${TESTS}" tests)
string(REGEX MATCHALL "std::set<std::string>{\"[a-z0-9.-]+\"}" expected
       "${tests}")
string(REGEX REPLACE "std::set<std::string>{\"([a-z0-9.-]+)\"}" "\\1"
       covered "${expected}")

set(errors "")
foreach(slug IN LISTS reported)
  list(FIND covered "${slug}" at)
  if(at EQUAL -1)
    string(APPEND errors "\n  ${slug}: no corruption test expects exactly it")
  endif()
endforeach()
if(errors)
  message(FATAL_ERROR "auditor slug coverage:${errors}")
endif()
message(STATUS "auditor slug coverage: ${count} slugs: ${reported}")
