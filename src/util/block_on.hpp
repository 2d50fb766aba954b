// Blocking adapter for the callback-style async APIs of the server engines.
//
// block_on<T>(start) calls `start(cb)` with a one-shot callback taking a
// std::optional<T>, then waits until that callback has fired and returns
// the value it carried. The engines invoke every callback exactly once
// (std::nullopt when stopped), so the wait always ends.
//
// Never call this on an engine apply thread or a reactor loop thread. The
// callback of an engine op fires on an apply thread, so waiting on one
// would deadlock, and waiting on a loop thread would stall every
// connection the loop serves. It is meant for startup gates, post-mortem
// reads after stop(), tools and tests.
#pragma once

#include <future>
#include <memory>
#include <optional>
#include <utility>

namespace ccpr::util {

template <class T, class Start>
std::optional<T> block_on(Start&& start) {
  auto done = std::make_shared<std::promise<std::optional<T>>>();
  auto result = done->get_future();
  std::forward<Start>(start)(
      [done](std::optional<T> v) { done->set_value(std::move(v)); });
  return result.get();
}

}  // namespace ccpr::util
