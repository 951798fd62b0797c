# Fails when any test binary in BINARIES (comma-separated) lists a test
# whose name embeds a raw byte dump of its parameter.
#
# Sweep/StridedAccess is exempt for now: its parameter is two int64_t
# fields and no pointer, so its byte dump is the same in every build.
# Giving it readable names is a separate rename (ROADMAP item 0).
string(REPLACE "," ";" BINARIES "${BINARIES}")
set(STABLE_DUMP_SUITES "^Sweep/StridedAccess\\.")
set(BAD "")
set(SUITE "")
foreach(BIN IN LISTS BINARIES)
  execute_process(COMMAND "${BIN}" --gtest_list_tests
                  OUTPUT_VARIABLE LISTING RESULT_VARIABLE RC)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR "${BIN} --gtest_list_tests exited with ${RC}")
  endif()
  string(REPLACE "\n" ";" LINES "${LISTING}")
  foreach(LINE IN LISTS LINES)
    # Suite lines start in column 0 ("Suite."); test lines are indented.
    if(LINE MATCHES "^[^ ]")
      set(SUITE "${LINE}")
    endif()
    if(LINE MATCHES "-byte object <" AND NOT SUITE MATCHES "${STABLE_DUMP_SUITES}")
      string(APPEND BAD "\n  ${BIN}: ${LINE}")
    endif()
  endforeach()
endforeach()
if(BAD)
  message(FATAL_ERROR "test names embed raw parameter bytes:${BAD}")
endif()
