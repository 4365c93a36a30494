# Fails unless every violation slug the StructureAuditor reports has a
# corruption test that expects exactly that slug (DESIGN.md §12.1):
#   cmake -DAUDITOR=src/analysis/structure_auditor.cpp \
#         -DTESTS=tests/test_structure_auditor.cpp \
#         -P auditor_slug_coverage.cmake
#
# A slug is a string literal of the form "family.name" in the auditor
# source. A test covers it when the test file expects exactly that one
# slug: std::set<std::string>{"family.name"}.
#
# Slugs with no such test yet are listed in KNOWN_GAPS. A listed slug that
# is covered fails the script too, so the list can only shrink.
set(KNOWN_GAPS
  evq.order
  evq.past-tick
  evq.sequence
  sus.capacity
  sus.unique
)

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
  list(FIND covered "${slug}" at_covered)
  list(FIND KNOWN_GAPS "${slug}" at_gap)
  if(at_covered EQUAL -1 AND at_gap EQUAL -1)
    string(APPEND errors "\n  ${slug}: no corruption test expects exactly it")
  elseif(NOT at_covered EQUAL -1 AND NOT at_gap EQUAL -1)
    string(APPEND errors "\n  ${slug}: covered now; drop it from KNOWN_GAPS")
  endif()
endforeach()
foreach(slug IN LISTS KNOWN_GAPS)
  list(FIND reported "${slug}" at)
  if(at EQUAL -1)
    string(APPEND errors "\n  ${slug}: in KNOWN_GAPS but never reported")
  endif()
endforeach()
if(errors)
  message(FATAL_ERROR "auditor slug coverage:${errors}")
endif()
message(STATUS "auditor slug coverage: ${count} slugs: ${reported}")
