// A listener whose close() is held until release(), for the daemon tests.
//
// begin_drain() closes the daemon's listener, which ends serve()'s accept
// loop and shuts every session down once admitted work is finished.  A
// test that must observe how a draining daemon answers a live session
// wraps its listener in HeldListener: begin_drain() then flips the
// daemon to draining while the accept loop, and so every session, stays
// up until the test calls release().  The answer is then deterministic
// instead of racing the session shutdown.
#pragma once

#include <memory>
#include <utility>

#include "server/transport.hpp"

namespace finehmm::server {

class HeldListener final : public Listener {
 public:
  explicit HeldListener(std::unique_ptr<Listener> inner)
      : inner_(std::move(inner)) {}
  std::unique_ptr<Connection> accept() override { return inner_->accept(); }
  void close() override {}
  void release() { inner_->close(); }

 private:
  std::unique_ptr<Listener> inner_;
};

}  // namespace finehmm::server
