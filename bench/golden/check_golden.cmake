# Runs PROGRAM with ARGS and byte-compares its stdout with GOLDEN.
#
#   cmake -DPROGRAM=<exe> "-DARGS=<space-separated args>" -DGOLDEN=<file>
#         -DACTUAL=<file> -P check_golden.cmake
#
# The simulator draws every random number from the repo's own Rng, so its
# figures print the same bytes on every build type; any difference is a
# behaviour change. The run's stdout is left in ACTUAL for diffing.
separate_arguments(args UNIX_COMMAND "${ARGS}")
get_filename_component(actual_dir "${ACTUAL}" DIRECTORY)
file(MAKE_DIRECTORY "${actual_dir}")
execute_process(COMMAND "${PROGRAM}" ${args}
                OUTPUT_FILE "${ACTUAL}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} ${ARGS} exited with ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${GOLDEN}" "${ACTUAL}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "stdout of `${PROGRAM} ${ARGS}` differs from "
                      "${GOLDEN}; it is in ${ACTUAL}")
endif()
