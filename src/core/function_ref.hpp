// FunctionRef — a non-owning, non-allocating callable reference.
//
// std::function construction type-erases by COPY, and a capturing lambda
// big enough to miss the small-object buffer heap-allocates at every call
// site — exactly the per-flush malloc the allocation-free serving path
// forbids. FunctionRef erases by REFERENCE instead: two words (object
// pointer + invoke thunk), no ownership, no allocation, trivially
// copyable. The referenced callable must outlive every call through the
// FunctionRef — which a temporary lambda does for the duration of the
// full-expression it is passed in, the only way the serving path uses it
// (hdc::encode_block invokes its tile encoder, and
// EncodeCache::encode_entries_borrowed its miss callback, before
// returning).
#pragma once

#include <cstddef>
#include <type_traits>
#include <utility>

namespace cyberhd::core {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  /// Bind to any callable invocable as R(Args...). Intentionally
  /// non-explicit so call sites keep passing lambdas directly.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& f) noexcept  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(static_cast<const void*>(&f))),
        invoke_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return invoke_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_;
  R (*invoke_)(void*, Args...);
};

}  // namespace cyberhd::core
