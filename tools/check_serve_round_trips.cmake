# ctest helper: `dmfstream serve --drive` answers 200 distinct plan requests
# in one connection, one request line then one response line at a time. The
# ctest TIMEOUT bounds the whole run: a wire path that stalls each round trip
# on a delayed TCP acknowledgement (~90 ms a line) cannot finish in it.
# Run as
#   cmake -DDMFSTREAM=<path-to-binary> -DWORKDIR=<scratch dir> -P check_serve_round_trips.cmake
if(NOT DEFINED DMFSTREAM)
  message(FATAL_ERROR "pass -DDMFSTREAM=<path to dmfstream>")
endif()
if(NOT DEFINED WORKDIR)
  message(FATAL_ERROR "pass -DWORKDIR=<scratch directory>")
endif()

file(MAKE_DIRECTORY ${WORKDIR})
set(mix ${WORKDIR}/round_trip_requests.txt)
set(requests "")
foreach(demand RANGE 1 200)
  string(APPEND requests
    "{\"op\":\"plan\",\"ratio\":\"2:1:1:1:1:1:9\",\"demand\":${demand},\"storage\":5}\n")
endforeach()
string(APPEND requests "{\"op\":\"shutdown\"}\n")
file(WRITE ${mix} "${requests}")

execute_process(
  COMMAND ${DMFSTREAM} serve --port 0 --drive ${mix}
  OUTPUT_VARIABLE output
  ERROR_VARIABLE errout
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "dmfstream serve exited with ${status}: ${errout}")
endif()

# Every plan is computed (distinct keys), and each request gets its line.
string(REGEX MATCHALL "\"source\":\"planned\"" planned "${output}")
list(LENGTH planned plannedCount)
if(NOT plannedCount EQUAL 200)
  message(FATAL_ERROR "expected 200 planned responses, got ${plannedCount}")
endif()
string(REGEX MATCHALL "\n" newlines "${output}")
list(LENGTH newlines lines)
if(NOT lines EQUAL 201)
  message(FATAL_ERROR "expected 201 response lines, got ${lines}")
endif()
if(NOT output MATCHES "\"op\":\"shutdown\"")
  message(FATAL_ERROR "no shutdown acknowledgement")
endif()

message(STATUS "serve round trips: 200 plans answered line by line")
