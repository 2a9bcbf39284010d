# cmake -DBIN=<exe> -DARGS=<args> -DGOLDEN=<file> -DACTUAL=<file> -P compare_golden.cmake
#
# Runs BIN with ARGS and compares its stdout byte for byte with GOLDEN. On
# a mismatch the actual stdout is written to ACTUAL, so `diff GOLDEN
# ACTUAL` shows what moved.
cmake_minimum_required(VERSION 3.16)

execute_process(COMMAND ${BIN} ${ARGS} OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
file(READ ${GOLDEN} want)
if(NOT out STREQUAL want)
  file(WRITE ${ACTUAL} "${out}")
  message(FATAL_ERROR "stdout differs from the golden file:\n  diff ${GOLDEN} ${ACTUAL}")
endif()
