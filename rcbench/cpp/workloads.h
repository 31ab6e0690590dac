// The benchmark's three workloads. Each builds the program from its own
// seed-derived inputs, runs the timed phase, checks the outputs, and fills
// the report; a nonzero return is a set-up error (no result is printed).
#ifndef RCBENCH_WORKLOADS_H_
#define RCBENCH_WORKLOADS_H_

#include <string>

#include "harness.h"
#include "src/ml/classifier.h"

namespace rcb {

int RunClientRead(const Args& args, Checks& checks, Report& report);
int RunNetPush(const Args& args, Checks& checks, Report& report);
int RunSchedMonth(const Args& args, Checks& checks, Report& report);

// Prints which ExecEngine walk kAuto resolves to for a loaded classifier.
void PrintEngineDispatch(const std::string& model, const rc::ml::Classifier& classifier);

}  // namespace rcb

#endif  // RCBENCH_WORKLOADS_H_
