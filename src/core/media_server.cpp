#include "core/media_server.hpp"

namespace vodcache::core {

MediaServer::MediaServer(sim::SimTime horizon, sim::SimTime bucket)
    : meter_(horizon, bucket) {}

void MediaServer::serve(sim::Interval interval, DataRate rate) {
  meter_.add(interval, rate);
}

void MediaServer::merge(const MediaServer& other) {
  meter_.merge(other.meter_);
}

}  // namespace vodcache::core
