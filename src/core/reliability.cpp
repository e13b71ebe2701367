#include "core/reliability.hpp"

#include <algorithm>

namespace mado::core {

std::uint32_t GoBackN::stamp(std::uint64_t token, std::size_t wire_bytes) {
  held_.push_back(Held{token, next_seq_, wire_bytes});
  held_bytes_ += wire_bytes;
  return next_seq_++;
}

GoBackN::Timeout GoBackN::timeout(bool head_in_driver) {
  if (armed_acked_ != acked_ || head_in_driver) return Timeout::Restart;
  if (++retries_ > p_.max_retries) return Timeout::GiveUp;
  rto_ = std::min(rto_ * 2, p_.rto_max);
  return Timeout::Resend;
}

GoBackN::Arrival GoBackN::arrive(std::uint32_t seq) {
  owed_ = true;  // a duplicate or a gap is re-acked too: the sender resyncs
  if (seq == rx_next_) {
    ++rx_next_;
    return Arrival::Accept;
  }
  return seq_less(seq, rx_next_) ? Arrival::Duplicate : Arrival::Gap;
}

}  // namespace mado::core
