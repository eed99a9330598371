#include "faults/injector.hpp"

#include "faults/scenarios.hpp"

namespace lps::faults {

std::unique_ptr<MessageFaultInjector> make_message_injector(
    const std::string& spec, std::uint64_t seed) {
  // Parse first: a malformed spec must fail loudly even when the plan
  // has no message faults.
  FaultPlan plan = make_fault_plan(spec);
  if (!plan.message_faults()) return nullptr;
  return std::make_unique<MessageFaultInjector>(std::move(plan), seed);
}

}  // namespace lps::faults
