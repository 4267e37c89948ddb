#include "nn/module.h"

namespace kt {
namespace nn {

std::vector<ag::Variable> Module::Parameters() const {
  std::vector<ag::Variable> out;
  for (const auto& [name, param] : params_) out.push_back(param);
  for (const auto& [name, child] : children_) {
    for (const auto& p : child->Parameters()) out.push_back(p);
  }
  return out;
}

std::vector<std::string> Module::ParameterNames() const {
  std::vector<std::string> out;
  for (const auto& [name, param] : params_) out.push_back(name);
  for (const auto& [name, child] : children_) {
    for (const auto& n : child->ParameterNames()) out.push_back(name + "." + n);
  }
  return out;
}

int64_t Module::NumParameters() const {
  int64_t total = 0;
  for (const auto& p : Parameters()) total += p.numel();
  return total;
}

void Module::ZeroGrad() {
  for (auto& p : Parameters()) p.ZeroGrad();
}

std::vector<Tensor> Module::StateClone() const {
  std::vector<Tensor> state;
  for (const auto& p : Parameters()) state.push_back(p.value().Clone());
  return state;
}

void Module::SetState(const std::vector<Tensor>& state) {
  auto params = Parameters();
  KT_CHECK_EQ(params.size(), state.size());
  for (size_t i = 0; i < params.size(); ++i) {
    KT_CHECK(params[i].value().SameShape(state[i]));
    params[i].mutable_value() = state[i].Clone();
  }
}

ag::Variable Module::RegisterParameter(std::string name, Tensor init) {
  ag::Variable param = ag::Variable::Leaf(std::move(init), /*requires_grad=*/true);
  params_.emplace_back(std::move(name), param);
  return param;
}

void Module::RegisterChild(std::string name, Module* child) {
  KT_CHECK(child != nullptr);
  children_.emplace_back(std::move(name), child);
}

}  // namespace nn
}  // namespace kt
