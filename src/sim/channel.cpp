#include "sim/channel.hpp"

#include "sim/simulation.hpp"

namespace cdsflow::sim {

ChannelBase::ChannelBase(std::string name, std::size_t capacity)
    : name_(std::move(name)), capacity_(capacity) {}

void ChannelBase::bind_reader(Process& p) {
  CDSFLOW_EXPECT(reader_ == nullptr || reader_ == &p,
                 "channel '" + name_ + "' already has reader '" +
                     reader_->name() + "'; '" + p.name() +
                     "' cannot also read it (a stream has one consumer)");
  reader_ = &p;
}

void ChannelBase::bind_writer(Process& p) {
  CDSFLOW_EXPECT(writer_ == nullptr || writer_ == &p,
                 "channel '" + name_ + "' already has writer '" +
                     writer_->name() + "'; '" + p.name() +
                     "' cannot also write it (a stream has one producer)");
  writer_ = &p;
}

void ChannelBase::note_push(std::size_t occupancy) {
  ++total_pushed_;
  if (occupancy > max_occupancy_) max_occupancy_ = occupancy;
  if (owner_ != nullptr) owner_->expect_endpoint(writer_, *this, "pushed");
  if (reader_ != nullptr) reader_->wake();
}

void ChannelBase::note_pop() {
  if (owner_ != nullptr) owner_->expect_endpoint(reader_, *this, "popped");
  if (writer_ != nullptr) writer_->wake();
}

}  // namespace cdsflow::sim
