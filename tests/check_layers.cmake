# Fails, naming each file, when a hardware-model layer includes a header
# from a layer built on top of it, or when code outside the serving layer
# includes the stat registry:
#   * a file under src/{common,sim,approx,hwmodel,noc,core,lut,accel}
#     includes a header from pipeline/, analysis/, serve/, cli/ or nn/;
#   * a file under src/ outside serve/ includes sim/stats.hpp (its own
#     sim/stats.cpp aside).
#   cmake -DROOT=<repository root> -P check_layers.cmake
cmake_minimum_required(VERSION 3.16)

if(NOT DEFINED ROOT)
  message(FATAL_ERROR "check_layers.cmake: pass -DROOT=<repository root>")
endif()

set(model_dirs common sim approx hwmodel noc core lut accel)
set(upper "^(pipeline|analysis|serve|cli|nn)/")

file(GLOB_RECURSE files RELATIVE "${ROOT}/src"
  "${ROOT}/src/*.hpp" "${ROOT}/src/*.cpp")
list(SORT files)
set(violations "")
foreach(file IN LISTS files)
  string(REGEX REPLACE "/.*$" "" dir "${file}")
  file(STRINGS "${ROOT}/src/${file}" includes
    REGEX "^[ \t]*#[ \t]*include[ \t]*\"")
  foreach(line IN LISTS includes)
    string(REGEX REPLACE "^[^\"]*\"([^\"]*)\".*$" "\\1" header "${line}")
    if(dir IN_LIST model_dirs AND header MATCHES "${upper}")
      string(APPEND violations "\n  src/${file} includes ${header}")
    elseif(header STREQUAL "sim/stats.hpp" AND NOT dir STREQUAL "serve"
           AND NOT file STREQUAL "sim/stats.cpp")
      string(APPEND violations "\n  src/${file} includes ${header}")
    endif()
  endforeach()
endforeach()

if(violations)
  message(FATAL_ERROR
    "model layers (common, sim, approx, hwmodel, noc, core, lut, accel) "
    "must not include pipeline/, analysis/, serve/, cli/ or nn/, and only "
    "serve/ includes sim/stats.hpp:${violations}")
endif()
list(LENGTH files count)
message(STATUS "${count} sources, every include pointing down the layers")
