#include "pfs/client.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "sim/contracts.hpp"

namespace calciom::pfs {

namespace {

/// Awaits every flow in `flows`, then records the write and fires `done`.
/// Awaiting sequentially is correct because completion triggers stay fired.
sim::Task joinFlows(net::FlowNet& net, std::vector<net::FlowId> flows,
                    PfsFile* file, std::uint64_t bytes,
                    std::shared_ptr<sim::Trigger> done) {
  for (net::FlowId f : flows) {
    co_await net.completion(f);
  }
  file->recordWrite(bytes);
  done->fire();
}

}  // namespace

double PfsClient::aloneBandwidth(double streams) const {
  return std::min(fs_.sustainedAggregateBandwidth(), clientCap(streams));
}

double PfsClient::clientCap(double streams) const {
  CALCIOM_EXPECTS(streams > 0.0);
  double bw = net::kUnlimited;
  if (ctx_.injectionResource) {
    bw = std::min(bw, net_.capacity(*ctx_.injectionResource));
  }
  if (ctx_.perStreamCap != net::kUnlimited) {
    bw = std::min(bw, ctx_.perStreamCap * streams);
  }
  return bw;
}

std::shared_ptr<sim::Trigger> PfsClient::writeRange(const std::string& fileName,
                                                    std::uint64_t offset,
                                                    std::uint64_t len,
                                                    double streams) {
  CALCIOM_EXPECTS(streams > 0.0);
  auto done = std::make_shared<sim::Trigger>();
  PfsFile& file = fs_.open(fileName);
  if (len == 0) {
    file.recordWrite(0);
    done->fire();
    return done;
  }

  const std::vector<std::uint64_t> perServer =
      fs_.layout().bytesPerServer(offset, len);
  const auto total = static_cast<double>(len);

  std::vector<net::FlowId> flows;
  flows.reserve(perServer.size());
  for (std::size_t s = 0; s < perServer.size(); ++s) {
    if (perServer[s] == 0) {
      continue;
    }
    const double share = static_cast<double>(perServer[s]) / total;
    net::FlowSpec spec;
    spec.bytes = static_cast<double>(perServer[s]);
    if (ctx_.injectionResource) {
      spec.path.push_back(*ctx_.injectionResource);
    }
    spec.path.push_back(fs_.switchResource());
    spec.path.push_back(fs_.server(static_cast<int>(s)).ingress());
    spec.weight = streams * share;
    if (ctx_.perStreamCap != net::kUnlimited) {
      spec.rateCap = ctx_.perStreamCap * streams * share;
    }
    spec.group = ctx_.appId;
    flows.push_back(net_.start(spec));
  }
  engine_.spawn(joinFlows(net_, std::move(flows), &file, len, done));
  return done;
}

}  // namespace calciom::pfs
