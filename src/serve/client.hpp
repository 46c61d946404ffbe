// Client: a (backend, model) handle for call sites that talk to one
// model.
//
// The Backend interface addresses models by id on every call; a Client
// binds the pair once so request loops read naturally:
//
//   serve::Client chat(backend, backend.find_model("chat").value());
//   auto fut = chat.submit(rows_span, n).take_future();
//   chat.submit(std::move(buffer), n, {.admission = Admission::kFailFast});
//   chat.submit(rows_span, n, {.admission = std::chrono::milliseconds(5)});
//   chat.stats().e2e_p99;
//
// The two submit wrappers mirror the InferenceRequest factories -- a
// span is borrowed (caller keeps it alive until completion), a vector
// is owned -- and both funnel into the backend's single
// submit(InferenceRequest, SubmitOptions) entry point; the Client adds
// no API surface of its own beyond the binding.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "serve/backend.hpp"

namespace radix::serve {

class Client {
 public:
  Client() = default;
  Client(Backend& backend, ModelId model)
      : backend_(&backend), model_(model) {}

  /// Borrowed-input submit: `input` must stay alive until completion.
  SubmitResult submit(std::span<const float> input, index_t rows,
                      SubmitOptions opts = {}) const {
    return checked().submit(InferenceRequest::borrowed(model_, input, rows),
                            std::move(opts));
  }

  /// Owned-input submit: the request carries the buffer.  Rvalue-only
  /// so a vector LVALUE resolves to the borrowed span overload above
  /// instead of silently deep-copying here; pass std::move(v) (or a
  /// temporary) to hand the buffer over.
  SubmitResult submit(std::vector<float>&& input, index_t rows,
                      SubmitOptions opts = {}) const {
    return checked().submit(
        InferenceRequest::owned(model_, std::move(input), rows),
        std::move(opts));
  }

  ServeStats stats() const { return checked().stats(model_); }
  std::size_t pending() const { return checked().pending(model_); }

  Backend& backend() const { return checked(); }
  ModelId model() const noexcept { return model_; }
  bool bound() const noexcept { return backend_ != nullptr; }

 private:
  // Default-constructed Clients are legal placeholders; using one is a
  // caller bug -- surface it as the library's standard error instead of
  // a null dereference.
  Backend& checked() const {
    RADIX_REQUIRE(backend_ != nullptr, "Client: not bound to a backend");
    return *backend_;
  }

  Backend* backend_ = nullptr;
  ModelId model_ = 0;
};

}  // namespace radix::serve
