// Test-only read of one of a core::Client's `rc_client_*` counters from the
// registry the client records into. `labels` must match the client's
// ClientConfig::metric_labels (empty by default).
#ifndef RC_TESTS_CLIENT_COUNTER_H_
#define RC_TESTS_CLIENT_COUNTER_H_

#include <cstdint>
#include <string_view>
#include <utility>

#include "src/core/client.h"
#include "src/obs/metrics.h"

namespace rc::testing {

inline uint64_t ClientCounter(const rc::core::Client& client, std::string_view name,
                              rc::obs::Labels labels = {}) {
  return client.metrics().GetCounter(name, std::move(labels)).Value();
}

}  // namespace rc::testing

#endif  // RC_TESTS_CLIENT_COUNTER_H_
