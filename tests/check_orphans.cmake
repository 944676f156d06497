# Fails, naming each one, when a library header src/<dir>/<name>.hpp is
# included by no file under src/, bench/, examples/ or perfbench/ other than
# its own src/<dir>/<name>.cpp: code that only its own tests call.
#   cmake -DROOT=<repository root> -P check_orphans.cmake
cmake_minimum_required(VERSION 3.16)

if(NOT DEFINED ROOT)
  message(FATAL_ERROR "check_orphans.cmake: pass -DROOT=<repository root>")
endif()

file(GLOB headers RELATIVE "${ROOT}/src" "${ROOT}/src/*/*.hpp")
set(users "")
foreach(dir src bench examples perfbench)
  file(GLOB_RECURSE files "${ROOT}/${dir}/*.hpp" "${ROOT}/${dir}/*.cpp")
  foreach(file IN LISTS files)
    file(STRINGS "${file}" includes REGEX "^[ \t]*#[ \t]*include[ \t]*\"")
    foreach(line IN LISTS includes)
      string(REGEX REPLACE "^[^\"]*\"([^\"]*)\".*$" "\\1" header "${line}")
      # A header's own translation unit does not count as a user.
      string(REGEX REPLACE "\\.hpp$" ".cpp" own "${ROOT}/src/${header}")
      if(NOT file STREQUAL own)
        list(APPEND users "${header}")
      endif()
    endforeach()
  endforeach()
endforeach()

set(orphans "")
foreach(header IN LISTS headers)
  if(NOT header IN_LIST users)
    string(APPEND orphans "\n  src/${header}")
  endif()
endforeach()
if(orphans)
  message(FATAL_ERROR
    "headers that nothing under src/, bench/, examples/ or perfbench/ "
    "includes but their own .cpp (delete them, or give them a caller):"
    "${orphans}")
endif()
list(LENGTH headers count)
message(STATUS "${count} headers, each included outside its own .cpp")
