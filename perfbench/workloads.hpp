/**
 * @file
 * Entry points of the three workloads (README.md in this directory
 * says why each exists) and the trace writer they share.
 */

#pragma once

#include <string>

#include "common.hpp"

namespace perfbench {

Report runServeAdmit(const RunArgs &args);
Report runServeHeavy(const RunArgs &args);
Report runSpecFine(const RunArgs &args);

/** Write the traced run's spans to <kOutDir>/trace_<workload>.json. */
void writeTrace(const std::string &workload, const SpanLog &spans);

} // namespace perfbench
